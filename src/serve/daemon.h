// SolverDaemon: the request-driven serving front of the solver stack.
//
// Dataflow:  submit() -> bounded MPMC queue (admission control, shed on
// full) -> dispatch loop -> Batcher (deadline-bounded k-RHS batches per
// batch_key = matrix x backend x noise config) -> ResidencyCache (build
// RefloatMatrix + plans + the execution backend once per resident key;
// bit-true residents own their programmed crossbar image) ->
// solve::cg_multi / bicgstab_multi over a BackendMultiOperator
// (probe-routed, per-column tolerances and noise streams) -> per-request
// SolveResponse with a latency breakdown.
//
// Two drive modes:
//   * threaded (default): a dispatcher thread owns the batcher and sleeps
//     on the queue until the next window/deadline event;
//   * manual pump (config.manual_pump): no thread — tests call
//     pump(now) and control the clock, making window-expiry, deadline
//     shedding, and batching fully deterministic.
//
// Solves run on the dispatcher (or pumping) thread; parallelism lives
// inside the SpMV block-row shards as everywhere else in the repo, so a
// batch is bit-identical to its solo solves at any REFLOAT_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/format.h"
#include "src/serve/batcher.h"
#include "src/serve/request.h"
#include "src/serve/residency_cache.h"
#include "src/solvers/batched.h"
#include "src/sparse/csr.h"
#include "src/util/mpmc_queue.h"

namespace refloat::serve {

struct ServeConfig {
  std::size_t queue_capacity = 256;   // REFLOAT_SERVE_QUEUE
  std::size_t max_batch = 8;          // REFLOAT_SERVE_BATCH
  double batch_window_ms = 2.0;       // REFLOAT_SERVE_WINDOW_MS
  std::size_t cache_bytes = 256ull << 20;  // REFLOAT_SERVE_CACHE_MB
  long max_iterations = 10000;        // solver budget per request
  int tiles = 0;                      // 0 -> core::default_tile_count()
  bool manual_pump = false;           // tests: drive via pump(now)
  // ABFT checked sweeps: every resident backend carries a checksum row and
  // every operator apply is verified (REFLOAT_SERVE_ABFT=0 disables; the
  // recovery ladder then only sees divergence/stall/breakdown failures).
  bool abft = true;                   // REFLOAT_SERVE_ABFT
  // Recovery-ladder attempt budget per failed column (rungs: next_rung
  // below); 0 disables retries entirely (failures are answered as-is).
  int max_retries = 4;                // REFLOAT_SERVE_RETRIES

  // Reads the REFLOAT_SERVE_* overrides onto the defaults above (invalid
  // values warn and keep the default).
  static ServeConfig from_env();
};

// Aggregated serving counters plus the latency distribution, exported as
// the stats table (print_stats / the TCP STATS verb).
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;       // answered kOk
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t failed = 0;          // unknown matrix / bad rhs / shutdown
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  // sum of k over batches
  std::uint64_t max_batch_k = 0;
  // Fault-tolerance counters (the recovery ladder).
  std::uint64_t abft_failures = 0;   // solve attempts ended kCorrupted
  std::uint64_t retries = 0;         // ladder attempts run
  std::uint64_t recovered = 0;       // failed columns answered kConverged
  std::uint64_t degraded = 0;        // answers from a degraded view
  std::uint64_t reprograms = 0;      // bit-true crossbar reprogram rungs
  std::uint64_t rebuilds = 0;        // residency rebuild rungs
  double reprogram_seconds_sum = 0.0;  // modeled write-verify reprogram cost
  double queue_seconds_sum = 0.0;
  double build_seconds_sum = 0.0;
  double solve_seconds_sum = 0.0;
  double total_seconds_sum = 0.0;
  double p50_total_ms = 0.0;  // over completed requests
  double p99_total_ms = 0.0;
  ResidencyCache::CacheStats cache;

  [[nodiscard]] double mean_batch_k() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
};

// --- Recovery ladder -------------------------------------------------------
// One failed column walks down these rungs, one attempt each, bounded by
// config.max_retries and the request's deadline:
//   1. kResolve: re-solve on the same backend. An ABFT-corrupted solve
//      re-runs from scratch — the flagged apply's output was discarded
//      before touching x, so a clean retry reproduces the fault-free
//      trajectory bit-for-bit (transient faults). Diverged/stalled/
//      breakdown trajectories instead warm-start from the last-good iterate.
//   2. kReprogram (bit-true): reprogram the crossbar image under a fresh
//      fault seed, priced at a full write-verify programming pass, then
//      re-solve. kRebuild (other views, when corruption survived rung 1 —
//      a damaged resident image, not a transient): evict the residency
//      entry, rebuild it and re-solve. A refused reprogram or a failed
//      rebuild leaves the rung open for the next attempt.
//   3. kDegrade: step one execution view down per remaining attempt
//      (bittrue -> noisy -> value) and re-solve; the response carries
//      degraded=true and the view that actually answered. Value is the
//      floor: kStop there, as on convergence.
// Before every attempt the expected cost (the measured duration of the
// previous attempt) is checked against the deadline; when another attempt
// no longer fits, the request is shed (kShed) instead of answered late.
enum class LadderRung {
  kResolve, kReprogram, kRebuild, kDegrade, kShed, kStop
};

// Everything the rung choice depends on. The caller owns the clock and the
// attempt budget (config.max_retries); next_rung never reads either.
struct LadderState {
  core::BackendKind served = core::BackendKind::kValue;   // the batch's view
  core::BackendKind current = core::BackendKind::kValue;  // the last attempt's
  solve::SolveStatus status = solve::SolveStatus::kCorrupted;  // its outcome
  bool reprogrammed = false;  // a reprogram rung succeeded
  bool rebuilt = false;       // a rebuild rung succeeded
  int attempt = 1;            // the attempt about to run, 1-based
  TimePoint now{};
  double estimate_seconds = 0.0;  // the previous attempt's duration
  TimePoint deadline = kNoDeadline;
};

// The recovery ladder's policy: which rung the next attempt takes. Pure —
// a function of `state` alone, so tests drive it without a daemon.
LadderRung next_rung(const LadderState& state);

class SolverDaemon {
 public:
  explicit SolverDaemon(ServeConfig config = {});
  ~SolverDaemon();
  SolverDaemon(const SolverDaemon&) = delete;
  SolverDaemon& operator=(const SolverDaemon&) = delete;

  // Registers a matrix the daemon can serve: `build` produces the exact
  // CSR (called at most once per residency; the cache amortizes it) and
  // `format` is the ReFloat format it quantizes into. Re-registering a
  // name replaces the builder (existing residents are dropped).
  void register_matrix(const std::string& name, const core::Format& format,
                       std::function<sparse::Csr()> build);

  // Registers the 12 Table V suite stand-ins under their suite names,
  // built through gen::load_or_build (disk-cached) in their Table VII
  // formats.
  void register_suite();

  // Admission: returns a future that is ALWAYS eventually fulfilled —
  // immediately with kShedQueueFull when the queue is full or kShutdown
  // after shutdown began; otherwise when the request's batch resolves.
  std::future<SolveResponse> submit(SolveRequest request);

  // Manual drive (config.manual_pump only): drains the queue into the
  // batcher and dispatches everything ready at `now`. Policy decisions
  // (window expiry, deadlines) use `now`; latency accounting uses the real
  // clock.
  void pump(TimePoint now);

  // Stops admission, flushes every pending request (queued requests still
  // solve; expired ones shed), and joins the dispatcher. Idempotent;
  // the destructor calls it.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;
  // The stats table, aligned for humans (bench_serve and the TCP STATS
  // verb share the underlying counters).
  void print_stats() const;

  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  struct Registration {
    core::Format format;
    std::function<sparse::Csr()> build;
  };

  void dispatch_loop();
  // One pump step: drain queue (stamping dequeue times), shed/dispatch
  // ready batches at `now`.
  void step(TimePoint now, bool force);
  void dispatch_batch(Batcher::ReadyBatch&& batch);
  void respond_shed(PendingRequest&& pending, ResponseStatus status);

  // One dispatched batch's working state, threaded through the stages of
  // dispatch_batch (daemon.cc).
  struct BatchRun;
  bool acquire_resident(Batcher::ReadyBatch& batch, BatchRun& run);
  ResidencyCache::EntryPtr build_resident(const BatchRun& run) const;
  void fill_rhs(Batcher::ReadyBatch& batch, BatchRun& run);
  void walk_ladder(BatchRun& run, const solve::ColumnFailure& failure);
  bool rebuild_resident(BatchRun& run);
  void respond(BatchRun& run);

  ServeConfig config_;
  util::BoundedQueue<PendingRequest> queue_;
  Batcher batcher_;  // dispatcher/pump thread only
  ResidencyCache cache_;

  mutable std::mutex registry_mutex_;
  std::map<std::string, Registration> registry_;

  mutable std::mutex stats_mutex_;
  ServeStats stats_;
  std::vector<double> total_ms_reservoir_;  // completed-request latencies

  bool stopped_ = false;  // guarded by stats_mutex_ (rarely touched)
  std::thread dispatcher_;
};

// The deterministic server-side right-hand side for requests that carry a
// seed instead of a vector: Gaussian, scaled to ||b|| = 1, keyed by
// (dimension, seed) — the same (matrix, seed) request always solves the
// same system, so repeated TCP requests hit bit-identical trajectories.
std::vector<double> seeded_rhs(std::size_t n, std::uint64_t seed);

}  // namespace refloat::serve
