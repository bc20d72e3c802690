// perfbench_serve: the serving benchmark. Drives serve::SolverDaemon
// in-process (no socket) from ONE client thread in a closed loop, checks
// every answer, and prints its metrics; the last stdout line is the JSON
// result.
//
//   perfbench_serve --workload solo|burst8|churn --seed N --seconds S
//                   --trace 0|1 [--state-dir DIR]
//
// --trace 0 times the daemon for S seconds (whole rounds, at least 101
// requests so p90 keeps ten samples beyond it) and reports the end-to-end
// metrics. --trace 1 drives the daemon the same way for a fixed number of
// cycles, replays those requests through the public layer calls with a
// span around each (replay.h), and reports the per-layer metrics and the
// stage-sum ledger. Counters that must repeat exactly for a workload and
// seed are recorded under --state-dir; a later run that differs is
// reported invalid.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/replay.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/simd.h"
#include "src/serve/batcher.h"
#include "src/serve/daemon.h"
#include "src/solvers/solver.h"
#include "src/util/fault_injector.h"

namespace {

namespace serve = refloat::serve;
namespace solve = refloat::solve;
namespace util = refloat::util;
using perfbench::BatchRecord;
using perfbench::WorkloadDef;

// p90 needs ten samples beyond it: 101 requests.
constexpr std::size_t kMinSamples = 101;
// A timed phase that has not reached kMinSamples stops at this multiple of
// --seconds regardless (the p90 check then fails the run).
constexpr double kMaxOverrun = 3.0;
// The traced pass drives the daemon for about this share of --seconds;
// the replay takes about as long again.
constexpr double kTraceShare = 0.4;
// Bound on ||b - A x|| against the exact CSR, with ||b|| = 1. Quantizing
// the matrix to ReFloat(7,3,3) alone leaves 0.07-0.10 on these matrices at
// tol 1e-8, and the bit-true datapath at tol 1e-3 about 0.33; a wrong
// solution reads ~1 or NaN.
double residual_bound(refloat::core::BackendKind kind) {
  return kind == refloat::core::BackendKind::kBitTrue ? 0.5 : 0.25;
}
// Warm-up requests converge at the first residual check (||b|| = 1), so
// set-up time holds residency builds only.
constexpr double kWarmTolerance = 2.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string state_dir = ".bench_build/perfbench";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || a->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1" ? 1 : 0;
    } else if (flag == "--state-dir") {
      a->state_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

// Pins the process environment: the workload's thread count, and none of
// the knobs an ambient shell could leak into the daemon or the kernels.
void pin_environment(const WorkloadDef& w) {
  setenv("REFLOAT_THREADS", std::to_string(w.threads).c_str(), 1);
  for (const char* knob :
       {"REFLOAT_TILES", "REFLOAT_SIMD", "REFLOAT_AFFINITY", "REFLOAT_FAULTS",
        "REFLOAT_DATA_DIR", "REFLOAT_SERVE_QUEUE", "REFLOAT_SERVE_BATCH",
        "REFLOAT_SERVE_WINDOW_MS", "REFLOAT_SERVE_CACHE_MB",
        "REFLOAT_SERVE_ABFT", "REFLOAT_SERVE_RETRIES"}) {
    unsetenv(knob);
  }
}

// Distinct residency keys of one round, in first-visit order: the
// residents set-up builds, and the state a steady-state round leaves.
std::vector<std::size_t> warm_keys(const WorkloadDef& w) {
  std::vector<std::size_t> keys;
  std::set<std::string> seen;
  for (std::size_t key = 0; key < w.rotation.size(); ++key) {
    perfbench::Planned p;
    p.key = key;
    if (seen.insert(serve::batch_key(perfbench::make_request(w, p))).second) {
      keys.push_back(key);
    }
  }
  return keys;
}

// One set-up: daemon construction, registration through gen:: builders,
// and a warm-up burst per resident key. Returns false when a warm-up
// request is not answered kOk.
bool set_up(const WorkloadDef& w, std::atomic<long>& builds,
            std::unique_ptr<serve::SolverDaemon>& daemon) {
  daemon = std::make_unique<serve::SolverDaemon>(w.serve);
  std::set<std::string> registered;
  for (const perfbench::KeyDef& key : w.rotation) {
    if (!registered.insert(key.matrix).second) continue;
    const perfbench::MatrixDef def = perfbench::matrix_def(key.matrix);
    daemon->register_matrix(def.name, def.format,
                            [&builds, build = def.build] {
                              builds.fetch_add(1);
                              return build();
                            });
  }
  bool ok = true;
  for (std::size_t key : warm_keys(w)) {
    std::vector<std::future<serve::SolveResponse>> futures;
    for (std::size_t j = 0; j < w.burst; ++j) {
      perfbench::Planned p;
      p.key = key;
      serve::SolveRequest r = perfbench::make_request(w, p);
      r.tolerance = kWarmTolerance;
      futures.push_back(daemon->submit(std::move(r)));
    }
    for (auto& f : futures) {
      ok = ok && f.get().status == serve::ResponseStatus::kOk;
    }
  }
  return ok;
}

// The exact-repeat guard values over a run of recorded bursts.
perfbench::GuardSet guard_set(const WorkloadDef& w,
                              const perfbench::Matrices& matrices,
                              const std::vector<BatchRecord>& batches,
                              std::size_t count) {
  double requests = 0.0, k_inv = 0.0, iterations = 0.0, retries = 0.0;
  double model = 0.0, evictions = 0.0, builds = 0.0;
  for (std::size_t i = 0; i < count && i < batches.size(); ++i) {
    const perfbench::KeyDef& key = w.rotation[batches[i].planned.front().key];
    evictions += static_cast<double>(batches[i].evictions);
    builds += static_cast<double>(batches[i].builds);
    for (const serve::SolveResponse& r : batches[i].responses) {
      requests += 1.0;
      k_inv += 1.0 / static_cast<double>(r.batch_k);
      iterations += static_cast<double>(r.iterations);
      retries += r.retries;
      model += perfbench::model_request(key, matrices.at(key.matrix), r)
                   .total_s;
    }
  }
  return {{"model_solve_ms", model / requests * 1e3},
          {"serve.batch_k_mean", requests / k_inv},
          {"solvers.iterations_mean", iterations / requests},
          {"serve.retries", retries},
          {"serve.evictions", evictions},
          {"gen.builds", builds}};
}

// Compares `guards` with the record an earlier run of the same workload,
// seed and mode left, or leaves the first record. Returns the names that
// differ.
std::vector<std::string> check_guards(const std::string& dir,
                                      const std::string& name,
                                      const perfbench::GuardSet& guards,
                                      bool record) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(dir) / "guards" / (name + ".txt");
  std::ifstream in(path);
  if (in) {
    std::stringstream text;
    text << in.rdbuf();
    perfbench::GuardSet expected;
    if (!perfbench::parse_guards(text.str(), &expected)) {
      return {"(unreadable record " + path.string() + ")"};
    }
    return perfbench::compare_exact(expected, guards);
  }
  if (record) {
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    std::ofstream(path) << perfbench::format_guards(guards);
  }
  return {};
}

std::string unit_of(const std::string& name) {
  static const std::vector<std::pair<std::string, std::string>> e2e = {
      {"latency_ms_p50", "ms"},   {"latency_ms_p90", "ms"},
      {"throughput_rps", "1/s"},  {"cpu_ms_per_solve", "ms"},
      {"converged_frac", "ratio"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},      {"model_solve_ms", "ms"}};
  for (const auto& [n, u] : e2e) {
    if (n == name) return u;
  }
  const auto ends_with = [&name](const char* s) {
    const std::string suffix(s);
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("_ms") || name.find("_ms_") != std::string::npos) {
    return "ms";
  }
  if (name.find("_us") != std::string::npos) return "us";
  if (ends_with("_gbps_computed")) return "GB/s";
  if (ends_with("_frac") || ends_with("_share") || ends_with("cpu_per_wall")) {
    return "ratio";
  }
  return "count";
}

int run(const Args& args) {
  const WorkloadDef* wp = perfbench::find_workload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  const WorkloadDef& w = *wp;
  pin_environment(w);
  const bool trace = args.trace == 1;
  std::printf("perfbench_serve: workload=%s seed=%llu seconds=%d trace=%d "
              "threads=%d isa=%s clients=1 (closed loop, burst %zu)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, w.threads,
              refloat::core::simd_isa_name(refloat::core::simd_active_isa()),
              w.burst);

  const perfbench::Matrices matrices = perfbench::build_exact(w);
  std::vector<std::string> errors;

  // --- Set-up, repeated; the last daemon serves the timed phase.
  std::atomic<long> builds{0};
  std::unique_ptr<serve::SolverDaemon> daemon;
  std::vector<double> setup_times;
  for (int i = 0; i < w.setups; ++i) {
    daemon.reset();
    const double t0 = now_s();
    const bool ok = set_up(w, builds, daemon);
    setup_times.push_back(now_s() - t0);
    if (!ok) errors.push_back("a set-up warm-up request was not answered ok");
  }

  // --- The closed loop.
  util::FaultSpec fault_spec;
  fault_spec.site = util::FaultSite::kSweep;
  fault_spec.rate = w.fault_rate;
  fault_spec.seed = perfbench::fault_seed(args.seed);
  util::FaultInjector& injector = util::FaultInjector::global();
  if (w.fault_rate > 0.0) injector.configure(fault_spec);

  const std::vector<std::vector<perfbench::Planned>> cycle =
      perfbench::plan_cycle(w, args.seed);
  const std::size_t round_visits = w.rotation.size();
  const auto rounds_per_cycle = static_cast<long>(w.rounds_per_cycle);
  const long trace_cycles = std::max(
      1L, std::lround(kTraceShare * args.seconds /
                      (w.nominal_round_s * w.rounds_per_cycle)));
  std::unique_ptr<perfbench::Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<perfbench::Tracer>(w, matrices, args.seed,
                                                 warm_keys(w));
  }
  std::vector<BatchRecord> batches;
  std::size_t requests = 0;
  const double c0 = cpu_s();
  const double t0 = now_s();
  double elapsed = 0.0;
  for (long round = 0;; ++round) {
    for (std::size_t v = 0; v < round_visits; ++v) {
      BatchRecord rec;
      rec.planned = cycle[static_cast<std::size_t>(round % rounds_per_cycle) *
                              round_visits +
                          v];
      const util::FaultInjector::SiteStats faults0 =
          injector.site_stats(util::FaultSite::kSweep);
      rec.fault_events = faults0.events;
      const long builds0 = builds.load();
      const std::size_t evictions0 = daemon->stats().cache.evictions;
      std::vector<std::future<serve::SolveResponse>> futures;
      for (const perfbench::Planned& p : rec.planned) {
        futures.push_back(daemon->submit(perfbench::make_request(w, p)));
      }
      for (auto& f : futures) rec.responses.push_back(f.get());
      rec.builds = builds.load() - builds0;
      rec.evictions = daemon->stats().cache.evictions - evictions0;
      const util::FaultInjector::SiteStats faults1 =
          injector.site_stats(util::FaultSite::kSweep);
      rec.fault_events_after = faults1.events;
      rec.faults_fired = faults1.fired - faults0.fired;
      requests += rec.responses.size();
      if (tracer) tracer->replay(rec, round == 0);
      batches.push_back(std::move(rec));
    }
    elapsed = now_s() - t0;
    if (trace) {
      if (round + 1 == trace_cycles * rounds_per_cycle) break;
    } else if ((elapsed >= args.seconds && requests >= kMinSamples) ||
               elapsed >= kMaxOverrun * args.seconds) {
      break;
    }
  }
  const double cpu = cpu_s() - c0;
  injector.disable_all();

  // --- Correctness of every answer.
  const std::size_t cycle_visits = cycle.size();
  std::size_t converged = 0;
  double worst_residual = 0.0;  // as a share of its bound
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchRecord& rec = batches[i];
    const BatchRecord& first = batches[i % cycle_visits];
    const perfbench::KeyDef& key = w.rotation[rec.planned.front().key];
    const perfbench::ExactMatrix& m = matrices.at(key.matrix);
    for (std::size_t c = 0; c < rec.responses.size(); ++c) {
      const serve::SolveResponse& r = rec.responses[c];
      const perfbench::Planned& p = rec.planned[c];
      latency_ms.push_back(r.latency.total_seconds * 1e3);
      if (r.status != serve::ResponseStatus::kOk) {
        errors.push_back("request " + std::to_string(p.position) + ": " +
                         serve::response_status_name(r.status));
        continue;
      }
      if (r.solve_status == solve::SolveStatus::kConverged) ++converged;
      if (r.batch_k != w.burst) {
        errors.push_back("request " + std::to_string(p.position) +
                         " rode a batch of " + std::to_string(r.batch_k));
      }
      // Every cycle repeats the same systems: same status and iterations
      // as cycle 0, wherever no injected fault fired in either burst.
      const serve::SolveResponse& r0 = first.responses[c];
      if (rec.faults_fired == 0 && first.faults_fired == 0 &&
          (r.solve_status != r0.solve_status ||
           r.iterations != r0.iterations)) {
        errors.push_back("request " + std::to_string(p.position) +
                         " took " + std::to_string(r.iterations) +
                         " iterations, " + std::to_string(r0.iterations) +
                         " in cycle 0");
      }
      if (p.want_solution) {
        solve::SolveResult check;
        check.solution = r.solution;
        const std::vector<double> b =
            serve::seeded_rhs(m.csr.rows(), p.rhs_seed);
        if (check.solution.size() != b.size()) {
          errors.push_back("request " + std::to_string(p.position) +
                           " returned no solution");
          continue;
        }
        solve::attach_true_residual(m.csr, b, check);
        worst_residual = std::max(
            worst_residual, std::isfinite(check.true_residual)
                                ? check.true_residual /
                                      residual_bound(key.backend)
                                : INFINITY);
      }
    }
  }
  if (!(worst_residual <= 1.0)) {
    errors.push_back("a true residual reached " +
                     std::to_string(worst_residual) + " of its bound");
  }

  std::vector<std::pair<std::string, double>> metrics;
  perfbench::GuardSet guards;
  if (!trace) {
    if (perfbench::highest_supported_percentile(latency_ms.size()) < 90.0) {
      errors.push_back("only " + std::to_string(latency_ms.size()) +
                       " requests: p90 needs ten samples beyond it");
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    guards = guard_set(w, matrices, batches, cycle_visits);
    metrics = {
        {"latency_ms_p50", perfbench::percentile(latency_ms, 50.0)},
        {"latency_ms_p90", perfbench::percentile(latency_ms, 90.0)},
        {"throughput_rps", static_cast<double>(requests) / elapsed},
        {"cpu_ms_per_solve", cpu / static_cast<double>(requests) * 1e3},
        {"converged_frac",
         static_cast<double>(converged) / static_cast<double>(requests)},
        {"setup_s", perfbench::median(setup_times)},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
        {"model_solve_ms", guards.front().second},
    };
    const perfbench::Quartiles q = perfbench::quartiles(latency_ms);
    std::printf("timed phase: %zu requests in %.3f s (%zu cycles of %zu); "
                "latency q1/median/q3 %.3f/%.3f/%.3f ms; p90 over %zu "
                "samples (highest supported p%.2f)\n",
                requests, elapsed, batches.size() / cycle_visits,
                cycle_visits * w.burst, q.q1, q.q2, q.q3, latency_ms.size(),
                perfbench::highest_supported_percentile(latency_ms.size()));
    // Request classes (residency key x cache hit) by median latency: p50
    // and p90 should fall well inside one class's cumulative share.
    std::map<std::string, std::vector<double>> classes;
    for (const BatchRecord& rec : batches) {
      const std::string key =
          serve::batch_key(perfbench::make_request(w, rec.planned.front()));
      for (const serve::SolveResponse& r : rec.responses) {
        classes[key + (r.cache_hit ? "/hit" : "/miss")].push_back(
            r.latency.total_seconds * 1e3);
      }
    }
    std::vector<std::pair<double, std::string>> by_median;
    for (const auto& [name, v] : classes) {
      by_median.emplace_back(perfbench::median(v), name);
    }
    std::sort(by_median.begin(), by_median.end());
    double share = 0.0;
    std::printf("classes (median ms, cumulative share):");
    for (const auto& [med, name] : by_median) {
      share += 100.0 * static_cast<double>(classes[name].size()) /
               static_cast<double>(requests);
      std::printf(" %s %.1f %.0f%%", name.c_str(), med, share);
    }
    std::printf("\n");
    std::printf("set-up: %zu runs, %s s; worst true residual %.3f of its "
                "bound; model_solve_ms over cycle 0\n",
                setup_times.size(),
                [&] {
                  std::string s;
                  for (double t : setup_times) {
                    s += (s.empty() ? "" : "/") + std::to_string(t);
                  }
                  return s;
                }()
                    .c_str(),
                worst_residual);
  } else {
    perfbench::ReplayOutput replay = tracer->finish(batches);
    for (std::string& e : replay.errors) errors.push_back(std::move(e));
    metrics = replay.metrics;
    guards = guard_set(w, matrices, batches, batches.size());
    guards.emplace_back("core.sweeps", static_cast<double>(replay.sweeps));
    std::printf("traced pass: %zu requests in %ld cycles; replay rebuilt %ld "
                "residents\n",
                requests, trace_cycles, replay.builds);
  }

  // --- Exact-repeat guards.
  std::printf("exact-repeat guards:");
  for (const auto& [name, value] : guards) {
    std::printf(" %s=%.17g", name.c_str(), value);
  }
  std::printf("\n");
  char record_name[160];
  std::snprintf(record_name, sizeof record_name, "%s-seed%llu-s%d-trace%d",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace);
  for (const std::string& name :
       check_guards(args.state_dir, record_name, guards, errors.empty())) {
    errors.push_back("INVALID: exact-repeat guard " + name +
                     " differs from an earlier run of this workload and seed");
  }

  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) errors.push_back(name + " is not finite");
    std::printf("  %-32s %18.6f %s\n", name.c_str(), value,
                unit_of(name).c_str());
  }
  for (const std::string& e : errors) std::printf("ERROR: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(requests);
  json += ", \"failed\": " + std::to_string(requests - converged);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].second) ? metrics[i].second : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            unit_of(metrics[i].first) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--state-dir <dir>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 1;
  }
}
