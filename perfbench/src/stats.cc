#include "perfbench/src/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double highest_supported_percentile(std::size_t n, std::size_t beyond) {
  if (n <= beyond + 1) return 0.0;
  return 100.0 * static_cast<double>(n - 1 - beyond) /
         static_cast<double>(n - 1);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

Quartiles quartiles(std::vector<double> samples) {
  Quartiles q;
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  if (ld < 2) {
    q.q1 = q.q2 = q.q3 = samples[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1 positions, the
  // i-th cut at i*m/4 clamped into [1, n-1], interpolated in quarters.
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q2 = cut[1];
  q.q3 = cut[2];
  return q;
}

std::vector<std::string> compare_exact(const GuardSet& expected,
                                       const GuardSet& actual) {
  std::map<std::string, double> want(expected.begin(), expected.end());
  std::vector<std::string> diff;
  for (const auto& [name, value] : actual) {
    auto it = want.find(name);
    if (it == want.end() || std::bit_cast<std::uint64_t>(it->second) !=
                                std::bit_cast<std::uint64_t>(value)) {
      diff.push_back(name);
    }
    if (it != want.end()) want.erase(it);
  }
  for (const auto& [name, value] : want) diff.push_back(name);
  return diff;
}

std::string format_guards(const GuardSet& guards) {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : guards) {
    std::snprintf(buf, sizeof buf, "%a", value);
    out += name + " " + buf + "\n";
  }
  return out;
}

bool parse_guards(const std::string& text, GuardSet* out) {
  std::istringstream in(text);
  std::string line;
  GuardSet guards;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || space == 0) return false;
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') return false;
    guards.emplace_back(line.substr(0, space), value);
  }
  *out = std::move(guards);
  return true;
}

}  // namespace perfbench
