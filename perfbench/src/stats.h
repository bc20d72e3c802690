// Statistics helpers of the serving benchmark: percentiles with a stated
// sample-support rule, Python-compatible quartiles, and the exact-repeat
// comparison behind the benchmark's determinism guards.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Linear-interpolation percentile (rank p/100 * (n-1) over the sorted
// samples, numpy's default). p in [0, 100]; an empty sample reads 0.
double percentile(std::vector<double> samples, double p);

// The highest percentile p whose interpolation rank leaves at least
// `beyond` samples strictly above it: p = 100 * (n - 1 - beyond) / (n - 1).
// 0 when n <= beyond + 1. A p90 is reportable iff this is >= 90, which
// needs n >= 101 samples for beyond = 10.
double highest_supported_percentile(std::size_t n, std::size_t beyond = 10);

double median(std::vector<double> samples);

// First, second and third quartile, bit-for-bit the values Python's
// statistics.quantiles(samples, n=4) returns (its default "exclusive"
// method). Needs at least two samples; fewer read all-equal quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> samples);

// Named values that must repeat exactly on every run of one workload and
// seed. Stored as hex floats so a round trip through text keeps every bit.
using GuardSet = std::vector<std::pair<std::string, double>>;

// Names whose values differ bitwise between `expected` and `actual`, plus
// names present in only one of them. Empty means an exact repeat.
std::vector<std::string> compare_exact(const GuardSet& expected,
                                       const GuardSet& actual);

std::string format_guards(const GuardSet& guards);
// Parses format_guards output; false on a malformed line.
bool parse_guards(const std::string& text, GuardSet* out);

}  // namespace perfbench
