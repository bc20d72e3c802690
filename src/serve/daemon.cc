#include "src/serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "src/arch/config.h"
#include "src/arch/timing.h"
#include "src/gen/suite.h"
#include "src/hw/bit_true_backend.h"
#include "src/solvers/batched.h"
#include "src/sparse/vector_ops.h"
#include "src/util/fault_injector.h"
#include "src/util/log.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace refloat::serve {

namespace {

// Integer env override in [min, max]; invalid values warn and keep
// `fallback`.
std::size_t env_size(const char* name, std::size_t fallback,
                     std::size_t min = 1, std::size_t max = SIZE_MAX) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < 0 ||
      static_cast<unsigned long long>(parsed) < min ||
      static_cast<unsigned long long>(parsed) > max) {
    RF_LOG_WARN("%s=\"%s\" is not an integer in [%zu, %zu]; using %zu", name,
                text, min, max, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

// Millisecond env override in [0, kMaxSpanMs]; invalid values (inf and NaN
// included) warn and keep `fallback`.
double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(parsed >= 0.0 && parsed <= kMaxSpanMs)) {
    RF_LOG_WARN("%s=\"%s\" is not a number in [0, %g]; using %g", name, text,
                kMaxSpanMs, fallback);
    return fallback;
  }
  return parsed;
}

double seconds(Duration d) { return std::chrono::duration<double>(d).count(); }

// Builds the served execution view `kind` over a resident matrix (`tiled`
// empty = untiled). With `abft` non-null, every sweep is verified against
// the view's checksum row, computed into `abft` (which must outlive the
// backend) at a relative tolerance per view: value sweeps carry only FP
// rounding, noisy ones scatter each output by ~sigma per term, bit-true
// ones also quantize the operand (checked against the raw x). A corruption
// flips an exponent bit or plants a NaN, far outside all three bounds.
std::unique_ptr<core::SweepBackend> make_served_backend(
    const core::RefloatMatrix& rf, const core::TiledPlan& tiled,
    core::BackendKind kind, double sigma, core::AbftChecksum* abft) {
  const core::TiledPlan* tp = tiled.empty() ? nullptr : &tiled;
  std::unique_ptr<core::SweepBackend> backend;
  double tolerance = 1e-6;
  switch (kind) {
    case core::BackendKind::kValue:
      backend = core::make_value_backend(rf, tp);
      break;
    case core::BackendKind::kNoisy:
      // The constructor seed is the empty-context fallback only; serving
      // always passes each request's own noise_seed through the
      // SweepContext, so 0 is never consumed.
      backend = core::make_noisy_backend(rf, sigma, /*seed=*/0, tp);
      tolerance = std::max(1e-6, 32.0 * sigma);
      break;
    case core::BackendKind::kBitTrue:
      // Default ClusterConfig = the ideal datapath (no faults, no
      // conductance noise): serving is deterministic, and the image is
      // programmed once per residency — the cost the cache amortizes.
      backend = tp != nullptr ? std::make_unique<hw::BitTrueBackend>(
                                    rf, hw::ClusterConfig{}, *tp)
                              : std::make_unique<hw::BitTrueBackend>(
                                    rf, hw::ClusterConfig{});
      tolerance = 1e-3;
      break;
    case core::BackendKind::kReference:  // never parsed from a request
      throw std::runtime_error("reference backends are not served");
  }
  if (abft != nullptr) {
    *abft = core::make_abft_checksum(rf, tolerance);
    backend->set_abft(abft);
  }
  return backend;
}

// The solve behind a batch and every ladder attempt: the probe-routed
// lockstep driver over `backend`, one column per entry of `seeds`, each on
// its own noise stream and to its own tolerance.
solve::BatchedSolveResult solve_columns(core::SweepBackend& backend,
                                        bool indefinite,
                                        std::span<const double> b,
                                        long max_iterations,
                                        std::span<const double> tolerances,
                                        std::vector<std::uint64_t> seeds,
                                        std::span<const double> x0 = {}) {
  const std::size_t k = seeds.size();
  solve::SolveOptions options;
  options.max_iterations = max_iterations;
  options.record_trace = false;
  solve::BackendMultiOperator op(backend, std::move(seeds));
  return indefinite ? solve::bicgstab_multi(op, b, k, options, tolerances, x0)
                    : solve::cg_multi(op, b, k, options, tolerances, x0);
}

// What one batch column's answer cost the recovery ladder.
struct ColumnOutcome {
  core::BackendKind kind = core::BackendKind::kValue;  // the view answering
  int retries = 0;                 // ladder attempts run
  int abft_failures = 0;           // solves of the column ending kCorrupted
  int reprograms = 0;              // crossbar reprogram rungs taken
  int rebuilds = 0;                // residency rebuild rungs taken
  double reprogram_seconds = 0.0;  // modeled write-verify reprogram cost
  bool shed = false;               // no attempt fit before the deadline
};

// Bounds the latency reservoir: a long-lived daemon must not grow an
// unbounded vector of every latency ever observed.
constexpr std::size_t kMaxReservoir = 1u << 20;

}  // namespace

const char* response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kShedQueueFull: return "shed_queue_full";
    case ResponseStatus::kShedDeadline: return "shed_deadline";
    case ResponseStatus::kUnknownMatrix: return "unknown_matrix";
    case ResponseStatus::kBadRequest: return "bad_request";
    case ResponseStatus::kShutdown: return "shutdown";
  }
  return "?";
}

ServeConfig ServeConfig::from_env() {
  ServeConfig config;
  config.queue_capacity = env_size("REFLOAT_SERVE_QUEUE",
                                   config.queue_capacity);
  config.max_batch = env_size("REFLOAT_SERVE_BATCH", config.max_batch);
  config.batch_window_ms =
      env_double("REFLOAT_SERVE_WINDOW_MS", config.batch_window_ms);
  // Capped so the MiB -> byte shift cannot wrap.
  config.cache_bytes = env_size("REFLOAT_SERVE_CACHE_MB",
                                config.cache_bytes >> 20, 1, SIZE_MAX >> 20)
                       << 20;
  config.abft = env_size("REFLOAT_SERVE_ABFT", config.abft ? 1 : 0, 0, 1) == 1;
  config.max_retries = static_cast<int>(
      env_size("REFLOAT_SERVE_RETRIES",
               static_cast<std::size_t>(config.max_retries), 0, INT_MAX));
  return config;
}

std::vector<double> seeded_rhs(std::size_t n, std::uint64_t seed) {
  std::vector<double> b(n, 0.0);
  util::Rng rng(util::stream_seed(0x5e7f10a7u, seed, n));
  for (double& v : b) v = rng.gaussian();
  const double norm = sparse::norm2(b);
  if (norm > 0.0) {
    for (double& v : b) v /= norm;
  }
  return b;
}

SolverDaemon::SolverDaemon(ServeConfig config)
    : config_(config),
      queue_(config.queue_capacity),
      batcher_(config.max_batch,
               std::chrono::duration_cast<Duration>(
                   std::chrono::duration<double, std::milli>(
                       config.batch_window_ms))),
      cache_(config.cache_bytes) {
  if (config_.tiles <= 0) config_.tiles = core::default_tile_count();
  if (!config_.manual_pump) {
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  }
}

SolverDaemon::~SolverDaemon() { shutdown(); }

void SolverDaemon::register_matrix(const std::string& name,
                                   const core::Format& format,
                                   std::function<sparse::Csr()> build) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  registry_[name] = Registration{format, std::move(build)};
}

void SolverDaemon::register_suite() {
  for (const gen::SuiteSpec& spec : gen::suite()) {
    const core::Format format = spec.fv_override != 0
                                    ? core::default_format_fv16()
                                    : core::default_format();
    const gen::SuiteSpec* p = &spec;  // suite() spans static storage
    register_matrix(spec.name, format, [p] {
      return gen::load_or_build(*p, gen::default_data_dir());
    });
  }
}

std::future<SolveResponse> SolverDaemon::submit(SolveRequest request) {
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submit_time = Clock::now();
  std::future<SolveResponse> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  // Injected admission fault: the request is shed exactly as if the
  // bounded queue were full, exercising the client-visible overload path
  // without actually filling the queue.
  if (util::FaultInjector::global().should_fire(
          util::FaultSite::kAdmission)) {
    pending.dequeue_time = pending.submit_time;
    respond_shed(std::move(pending), ResponseStatus::kShedQueueFull);
    return future;
  }
  if (!queue_.try_push(std::move(pending))) {
    // try_push consumes `pending` only on success; a rejected request is
    // still ours to answer. Closed queue = shutting down, full queue =
    // admission-control shed.
    pending.dequeue_time = pending.submit_time;
    respond_shed(std::move(pending), queue_.closed()
                                         ? ResponseStatus::kShutdown
                                         : ResponseStatus::kShedQueueFull);
  }
  return future;
}

void SolverDaemon::pump(TimePoint now) {
  // Manual mode only; the threaded dispatcher owns the batcher otherwise.
  while (auto item = queue_.try_pop()) {
    item->dequeue_time = Clock::now();
    batcher_.add(std::move(*item), now);
  }
  step(now, queue_.closed());
}

void SolverDaemon::dispatch_loop() {
  for (;;) {
    std::optional<TimePoint> event = batcher_.next_event();
    const TimePoint wake =
        event.value_or(Clock::now() + std::chrono::milliseconds(100));
    std::optional<PendingRequest> item = queue_.pop_until(wake);
    const TimePoint now = Clock::now();
    if (item) {
      item->dequeue_time = now;
      batcher_.add(std::move(*item), now);
      // Opportunistically drain whatever arrived in the same burst so one
      // wakeup forms one batch instead of k.
      while (auto more = queue_.try_pop()) {
        more->dequeue_time = now;
        batcher_.add(std::move(*more), now);
      }
    }
    const bool closing = queue_.closed() && queue_.size() == 0;
    step(now, closing);
    if (closing && batcher_.empty()) return;
  }
}

void SolverDaemon::step(TimePoint now, bool force) {
  std::vector<PendingRequest> shed;
  for (;;) {
    std::optional<Batcher::ReadyBatch> ready =
        batcher_.pop_ready(now, &shed, force);
    for (PendingRequest& p : shed) {
      respond_shed(std::move(p), ResponseStatus::kShedDeadline);
    }
    shed.clear();
    if (!ready) break;
    dispatch_batch(std::move(*ready));
  }
}

void SolverDaemon::respond_shed(PendingRequest&& pending,
                                ResponseStatus status) {
  SolveResponse response;
  response.status = status;
  response.latency.queue_seconds =
      seconds(pending.dequeue_time - pending.submit_time);
  response.latency.total_seconds = seconds(Clock::now() - pending.submit_time);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (status == ResponseStatus::kShedDeadline) {
      ++stats_.shed_deadline;
    } else if (status == ResponseStatus::kShedQueueFull) {
      ++stats_.shed_queue_full;
    } else {
      ++stats_.failed;
    }
  }
  pending.promise.set_value(std::move(response));
}

LadderRung next_rung(const LadderState& state) {
  using core::BackendKind;
  if (state.status == solve::SolveStatus::kConverged) return LadderRung::kStop;
  if (state.deadline != kNoDeadline &&
      state.now + std::chrono::duration_cast<Duration>(
                      std::chrono::duration<double>(state.estimate_seconds)) >
          state.deadline) {
    return LadderRung::kShed;
  }
  if (state.attempt <= 1) return LadderRung::kResolve;
  // Rung 2+ changes something before solving again; once degraded, only
  // further degradation is left.
  if (state.current == state.served) {
    if (state.served == BackendKind::kBitTrue) {
      if (!state.reprogrammed) return LadderRung::kReprogram;
    } else if (state.status == solve::SolveStatus::kCorrupted &&
               !state.rebuilt) {
      return LadderRung::kRebuild;
    }
  }
  return state.current == BackendKind::kValue ? LadderRung::kStop
                                              : LadderRung::kDegrade;
}

struct SolverDaemon::BatchRun {
  std::string key;
  core::BackendKind kind = core::BackendKind::kValue;  // the served view
  double sigma = 0.0;
  Registration reg;
  ResidencyCache::EntryPtr entry;  // replaced by the rebuild rung
  bool cache_hit = false;
  double build_seconds = 0.0;
  std::vector<PendingRequest> requests;  // valid ones, in column order
  std::vector<double> b;                 // column-major k x n
  std::vector<double> tolerances;
  std::vector<std::uint64_t> noise_seeds;
  solve::BatchedSolveResult result;
  double solve_seconds = 0.0;
  std::vector<ColumnOutcome> outcome;
};

void SolverDaemon::dispatch_batch(Batcher::ReadyBatch&& batch) {
  // The batch key pins the execution view; every member agrees on backend
  // kind and noise sigma by construction.
  BatchRun run;
  run.key = std::move(batch.key);
  run.kind = batch.requests.front().request.backend;
  run.sigma = batch.requests.front().request.noise_sigma;
  if (!acquire_resident(batch, run)) return;
  fill_rhs(batch, run);
  if (run.requests.empty()) return;

  util::Timer solve_timer;
  run.result = solve_columns(*run.entry->backend, run.entry->indefinite,
                             run.b, config_.max_iterations, run.tolerances,
                             run.noise_seeds);
  run.solve_seconds = solve_timer.seconds();

  // Every failed column walks the ladder alone (k=1 solves — the failed
  // column, not the whole batch again). A column that ran out its
  // iteration budget got exactly the service it paid for — a retry would
  // burn the same budget again.
  for (const solve::ColumnFailure& f : run.result.failures) {
    run.outcome[f.column].abft_failures +=
        f.status == solve::SolveStatus::kCorrupted ? 1 : 0;
    if (config_.max_retries > 0 &&
        f.status != solve::SolveStatus::kMaxIterations) {
      walk_ladder(run, f);
    }
  }
  respond(run);
}

// Looks up the registration and gets or builds the resident; answers the
// whole batch kUnknownMatrix when either fails.
bool SolverDaemon::acquire_resident(Batcher::ReadyBatch& batch,
                                    BatchRun& run) {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = registry_.find(batch.matrix);
    if (it != registry_.end()) run.reg = it->second;
  }
  if (run.reg.build) {
    util::Timer build_timer;
    try {
      run.entry = cache_.get_or_build(
          run.key, [this, &run] { return build_resident(run); },
          &run.cache_hit);
    } catch (const std::exception& e) {
      RF_LOG_ERROR("serve: building \"%s\" failed: %s", run.key.c_str(),
                   e.what());
    }
    run.build_seconds = build_timer.seconds();
  }
  if (run.entry != nullptr) return true;
  for (PendingRequest& p : batch.requests) {
    respond_shed(std::move(p), ResponseStatus::kUnknownMatrix);
  }
  return false;
}

ResidencyCache::EntryPtr SolverDaemon::build_resident(
    const BatchRun& run) const {
  util::FaultInjector& inj = util::FaultInjector::global();
  // Injected residency-build fault: surfaces through the builder's
  // exception path (single-flight marker cleared, batch answered as
  // failed) — the same path a gen:: loader error takes.
  if (inj.should_fire(util::FaultSite::kCacheBuild)) {
    throw std::runtime_error("injected residency-build fault");
  }
  const sparse::Csr a = run.reg.build();
  auto built =
      std::make_shared<ResidentEntry>(core::RefloatMatrix(a, run.reg.format));
  // Injected plan corruption: silently damages the freshly built SpmvPlan
  // arena. The ABFT checksum is computed from quantized(), so checked
  // sweeps flag this on the first apply.
  if (inj.armed(util::FaultSite::kPlanBuild)) {
    inj.maybe_corrupt(util::FaultSite::kPlanBuild,
                      built->rf.mutable_plan().entry_value);
  }
  // Partition strictly after the RefloatMatrix reached its final address —
  // TiledPlan borrows a pointer into rf.plan(); the backend borrows both.
  if (config_.tiles > 1 && built->rf.plan().num_blocks() > 0) {
    built->tiled = core::TiledPlan::partition(built->rf.plan(),
                                              {.tiles = config_.tiles});
  }
  built->backend =
      make_served_backend(built->rf, built->tiled, run.kind, run.sigma,
                          config_.abft ? &built->abft : nullptr);
  if (built->rf.quantized().rows() == built->rf.quantized().cols()) {
    built->indefinite = built->rf.probe_definiteness().likely_indefinite();
  }
  built->bytes = built->rf.resident_bytes() + built->tiled.index_bytes();
  if (run.kind == core::BackendKind::kBitTrue) {  // + the programmed image
    built->bytes += static_cast<const hw::BitTrueBackend&>(*built->backend)
                        .hw()
                        .resident_bytes();
  }
  return built;
}

// Materializes seeded right-hand sides, answers wrong-sized ones, and lays
// the rest out column-major with their tolerances and noise seeds. Each
// column keeps its request's own noise_seed, so column c is bit-identical
// to a solo solve with that seed — the batch a request happens to ride in
// is unobservable in its answer.
void SolverDaemon::fill_rhs(Batcher::ReadyBatch& batch, BatchRun& run) {
  const std::size_t n =
      static_cast<std::size_t>(run.entry->rf.quantized().rows());
  run.requests.reserve(batch.requests.size());
  run.b.reserve(batch.requests.size() * n);
  for (PendingRequest& p : batch.requests) {
    SolveRequest& request = p.request;
    if (request.rhs.empty()) request.rhs = seeded_rhs(n, request.rhs_seed);
    if (request.rhs.size() != n) {
      respond_shed(std::move(p), ResponseStatus::kBadRequest);
      continue;
    }
    run.b.insert(run.b.end(), request.rhs.begin(), request.rhs.end());
    run.tolerances.push_back(request.tolerance);
    run.noise_seeds.push_back(request.noise_seed);
    run.requests.push_back(std::move(p));
  }
  run.outcome.assign(run.requests.size(), ColumnOutcome{.kind = run.kind});
}

// Executes the rungs next_rung picks for one failed column, in place in
// run.result.
void SolverDaemon::walk_ladder(BatchRun& run,
                               const solve::ColumnFailure& failure) {
  const std::size_t c = failure.column;
  const std::size_t k = run.requests.size();
  const std::size_t n = run.b.size() / k;
  solve::SolveResult& column = run.result.columns[c];
  ColumnOutcome& out = run.outcome[c];
  LadderState state{
      .served = run.kind,
      .current = run.kind,
      .status = failure.status,
      .estimate_seconds =
          std::max(run.solve_seconds / static_cast<double>(k), 0.0),
      .deadline = run.requests[c].request.deadline};
  // Degraded views are built on demand over the resident matrix; their
  // ABFT checksum must outlive every solve that checks against it.
  std::unique_ptr<core::SweepBackend> lower;
  core::AbftChecksum lower_abft;
  for (; state.attempt <= config_.max_retries; ++state.attempt) {
    state.now = Clock::now();
    const LadderRung rung = next_rung(state);
    if (rung == LadderRung::kStop) break;
    if (rung == LadderRung::kShed) {
      out.shed = true;
      break;
    }
    if (rung == LadderRung::kReprogram &&
        run.entry->backend->reprogram(
            static_cast<std::uint64_t>(state.attempt))) {
      state.reprogrammed = true;
      ++out.reprograms;
      out.reprogram_seconds += arch::reprogram_seconds(
          arch::AcceleratorConfig{}, run.entry->rf.nonzero_blocks());
    } else if (rung == LadderRung::kRebuild && rebuild_resident(run)) {
      state.rebuilt = true;
      ++out.rebuilds;
    } else if (rung == LadderRung::kDegrade) {
      state.current = state.current == core::BackendKind::kBitTrue
                          ? core::BackendKind::kNoisy
                          : core::BackendKind::kValue;
      lower = make_served_backend(run.entry->rf, run.entry->tiled,
                                  state.current, run.sigma,
                                  config_.abft ? &lower_abft : nullptr);
    }
    // Corrupted attempts restart clean (bit-identity with the fault-free
    // solve); persistent failures warm-start from the last-good iterate.
    const std::span<const double> x0 =
        state.status == solve::SolveStatus::kCorrupted
            ? std::span<const double>()
            : std::span<const double>(column.solution);
    util::Timer timer;
    solve::BatchedSolveResult again = solve_columns(
        state.current == run.kind ? *run.entry->backend : *lower,
        run.entry->indefinite,
        std::span<const double>(run.b).subspan(c * n, n),
        config_.max_iterations,
        std::span<const double>(run.tolerances).subspan(c, 1),
        {run.noise_seeds[c]}, x0);
    state.estimate_seconds = timer.seconds();
    column = std::move(again.columns[0]);
    state.status = column.status;
    ++out.retries;
    if (state.status == solve::SolveStatus::kCorrupted) ++out.abft_failures;
  }
  out.kind = state.current;
  RF_LOG_WARN(
      "serve: column %zu of \"%s\" failed (%s at iter %ld, last-good "
      "residual %.3e): %d retr%s, %s",
      c, run.key.c_str(), solve::status_name(failure.status),
      failure.iteration, failure.last_good_residual, out.retries,
      out.retries == 1 ? "y" : "ies",
      out.shed ? "shed" : solve::status_name(column.status));
}

// The rebuild rung: evicts the damaged resident and builds a fresh one.
// Returns false, keeping the old entry, when the build fails.
bool SolverDaemon::rebuild_resident(BatchRun& run) {
  cache_.erase(run.key);
  try {
    if (ResidencyCache::EntryPtr fresh = cache_.get_or_build(
            run.key, [this, &run] { return build_resident(run); })) {
      run.entry = std::move(fresh);
      return true;
    }
  } catch (const std::exception& e) {
    RF_LOG_WARN("serve: rebuilding \"%s\" for recovery failed: %s",
                run.key.c_str(), e.what());
  }
  return false;
}

// Answers every column, folding its latency and ladder outcome into
// stats_ under one lock (taken before any of the batch's futures resolves).
void SolverDaemon::respond(BatchRun& run) {
  const TimePoint done = Clock::now();
  const std::size_t k = run.requests.size();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches;
    stats_.batched_requests += k;
    stats_.max_batch_k = std::max<std::uint64_t>(stats_.max_batch_k, k);
    double reprogram_seconds = 0.0;  // summed per batch, then added once
    for (std::size_t c = 0; c < k; ++c) {
      const ColumnOutcome& out = run.outcome[c];
      stats_.abft_failures += static_cast<std::uint64_t>(out.abft_failures);
      stats_.retries += static_cast<std::uint64_t>(out.retries);
      stats_.reprograms += static_cast<std::uint64_t>(out.reprograms);
      stats_.rebuilds += static_cast<std::uint64_t>(out.rebuilds);
      reprogram_seconds += out.reprogram_seconds;
      if (out.shed) continue;  // answered below; respond_shed counts it

      PendingRequest& p = run.requests[c];
      solve::SolveResult& column = run.result.columns[c];
      SolveResponse r;
      r.status = ResponseStatus::kOk;
      r.solve_status = column.status;
      r.iterations = column.iterations;
      r.final_residual = column.final_residual;
      if (p.request.want_solution) r.solution = std::move(column.solution);
      r.batch_k = k;
      r.solver = run.entry->indefinite ? "bicgstab" : "cg";
      r.backend = core::backend_kind_name(out.kind);
      r.cache_hit = run.cache_hit;
      r.retries = out.retries;
      r.degraded = out.kind != run.kind;
      r.latency.queue_seconds = seconds(p.dequeue_time - p.submit_time);
      r.latency.build_seconds = run.cache_hit ? 0.0 : run.build_seconds;
      r.latency.solve_seconds = run.solve_seconds;
      r.latency.total_seconds = seconds(done - p.submit_time);

      ++stats_.completed;
      stats_.queue_seconds_sum += r.latency.queue_seconds;
      stats_.build_seconds_sum += r.latency.build_seconds;
      stats_.solve_seconds_sum += r.latency.solve_seconds;
      stats_.total_seconds_sum += r.latency.total_seconds;
      if (total_ms_reservoir_.size() < kMaxReservoir) {
        total_ms_reservoir_.push_back(r.latency.total_seconds * 1e3);
      }
      // A column that failed, walked the ladder and answered converged.
      if (out.retries > 0 && r.solve_status == solve::SolveStatus::kConverged) {
        ++stats_.recovered;
        if (r.degraded) ++stats_.degraded;
      }
      p.promise.set_value(std::move(r));
    }
    stats_.reprogram_seconds_sum += reprogram_seconds;
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (run.outcome[c].shed) {
      respond_shed(std::move(run.requests[c]), ResponseStatus::kShedDeadline);
    }
  }
}

void SolverDaemon::shutdown() {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else {
    // Manual mode: flush whatever is still queued or batched.
    pump(Clock::now());
  }
}

ServeStats SolverDaemon::stats() const {
  ServeStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
    out.p50_total_ms = util::percentile(total_ms_reservoir_, 50.0);
    out.p99_total_ms = util::percentile(total_ms_reservoir_, 99.0);
  }
  out.cache = cache_.stats();
  return out;
}

void SolverDaemon::print_stats() const {
  const ServeStats s = stats();
  util::Table table({"metric", "value"});
  const auto u64 = [](std::uint64_t v) {
    return util::fmt_i(static_cast<long long>(v));
  };
  table.add_row({"submitted", u64(s.submitted)});
  table.add_row({"completed", u64(s.completed)});
  table.add_row({"shed (queue full)", u64(s.shed_queue_full)});
  table.add_row({"shed (deadline)", u64(s.shed_deadline)});
  table.add_row({"failed", u64(s.failed)});
  table.add_row({"batches", u64(s.batches)});
  table.add_row({"mean batch k", util::fmt_f(s.mean_batch_k(), 2)});
  table.add_row({"max batch k", u64(s.max_batch_k)});
  table.add_row({"abft failures", u64(s.abft_failures)});
  table.add_row({"retries", u64(s.retries)});
  table.add_row({"recovered", u64(s.recovered)});
  table.add_row({"degraded", u64(s.degraded)});
  table.add_row({"reprograms", u64(s.reprograms)});
  table.add_row({"rebuilds", u64(s.rebuilds)});
  if (s.reprograms > 0) {
    table.add_row({"modeled reprogram cost",
                   util::fmt_duration(s.reprogram_seconds_sum)});
  }
  table.add_row({"cache hits", u64(s.cache.hits)});
  table.add_row({"cache misses", u64(s.cache.misses)});
  table.add_row({"cache evictions", u64(s.cache.evictions)});
  table.add_row({"resident matrices", u64(s.cache.resident_count)});
  table.add_row({"resident bytes", u64(s.cache.resident_bytes)});
  table.add_row({"p50 total", util::fmt_duration(s.p50_total_ms * 1e-3)});
  table.add_row({"p99 total", util::fmt_duration(s.p99_total_ms * 1e-3)});
  if (s.completed > 0) {
    const double inv = 1.0 / static_cast<double>(s.completed);
    table.add_row({"mean queue wait",
                   util::fmt_duration(s.queue_seconds_sum * inv)});
    table.add_row({"mean build", util::fmt_duration(s.build_seconds_sum * inv)});
    table.add_row({"mean solve", util::fmt_duration(s.solve_seconds_sum * inv)});
    table.add_row({"mean total", util::fmt_duration(s.total_seconds_sum * inv)});
  }
  table.print();
}

}  // namespace refloat::serve
