#include "perfbench/src/replay.h"

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <span>

#include "perfbench/src/stats.h"
#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/hw/bit_true_backend.h"
#include "src/serve/batcher.h"
#include "src/solvers/batched.h"
#include "src/util/fault_injector.h"

namespace perfbench {

namespace core = refloat::core;
namespace serve = refloat::serve;
namespace solve = refloat::solve;
namespace util = refloat::util;
using core::BackendKind;

namespace {

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

// The daemon's ABFT tolerance per execution view (serve/daemon.cc); the
// replayed residents must judge sweeps exactly as the daemon's do.
double abft_tolerance(BackendKind kind, double sigma) {
  switch (kind) {
    case BackendKind::kValue: return 1e-6;
    case BackendKind::kNoisy: return std::max(1e-6, 32.0 * sigma);
    case BackendKind::kBitTrue: return 1e-3;
  }
  return 1e-6;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Wall seconds one replayed batch spent per stage.
struct Stages {
  double rhs = 0.0;  // serve::seeded_rhs, as the daemon expands rhs seeds
  double gen = 0.0, plan = 0.0, program = 0.0, abft = 0.0, probe = 0.0;
  double sweep = 0.0;  // operator applies, inside `solve`
  double solve = 0.0;  // every solver call, recovery attempts included
  // The part the daemon's own build/solve timers cover (no recovery).
  double main_build = 0.0, main_solve = 0.0;
  [[nodiscard]] double build() const {
    return gen + plan + program + abft + probe;
  }
};

struct SweepClass {
  double seconds = 0.0;
  long calls = 0;
  double columns = 0.0;
};

// Whole-replay accumulators behind the per-layer metrics.
struct Tally {
  std::map<std::string, SweepClass> sweeps;  // "<view>/k1", "<view>/k8", ...
  long sweep_calls = 0;
  double sweep_s = 0.0, solve_s = 0.0, solve_cpu_s = 0.0;
  double computed_bytes = 0.0, computed_bytes_s = 0.0;  // value + noisy
  long solver_calls = 0, main_calls = 0, batched_applies = 0;
  std::vector<double> gen, plan, abft, probe, bit_true_program;
};

// Where one solve's applies are accounted.
struct SweepSink {
  BackendKind kind = BackendKind::kValue;
  double plan_bytes = 0.0;
  double rows = 0.0, cols = 0.0;
  Stages* stages = nullptr;
  Tally* tally = nullptr;

  void record(std::size_t k, double seconds) const {
    stages->sweep += seconds;
    tally->sweep_s += seconds;
    ++tally->sweep_calls;
    const char* shape = k == 1 ? "/k1" : k == 8 ? "/k8" : "/kn";
    SweepClass& c =
        tally->sweeps[std::string(core::backend_kind_name(kind)) + shape];
    c.seconds += seconds;
    ++c.calls;
    c.columns += static_cast<double>(k);
    if (kind != BackendKind::kBitTrue) {
      // Plan arena read once per sweep, k operand and k result vectors.
      tally->computed_bytes +=
          plan_bytes + static_cast<double>(k) * (rows + cols) * 8.0;
      tally->computed_bytes_s += seconds;
    }
  }
};

// The sweep span: a MultiOperator decorator timing every apply of the
// wrapped BackendMultiOperator, verdicts passed through untouched.
class TimedOperator final : public solve::MultiOperator {
 public:
  TimedOperator(solve::BackendMultiOperator& inner, const SweepSink& sink)
      : inner_(inner), sink_(sink) {}
  void apply_multi(std::span<const double> x, std::size_t k,
                   std::span<double> y) override {
    const double t0 = now_s();
    inner_.apply_multi(x, k, y);
    sink_.record(k, now_s() - t0);
  }
  void apply_multi_cols(std::span<const double> x, std::size_t k,
                        std::span<double> y,
                        std::span<const std::size_t> columns) override {
    const double t0 = now_s();
    inner_.apply_multi_cols(x, k, y, columns);
    sink_.record(k, now_s() - t0);
  }
  [[nodiscard]] refloat::sparse::Index dim() const override {
    return inner_.dim();
  }
  [[nodiscard]] std::string label() const override {
    return inner_.label() + "+timed";
  }
  [[nodiscard]] const core::SweepVerdict* last_verdict() const override {
    return inner_.last_verdict();
  }

 private:
  solve::BackendMultiOperator& inner_;
  const SweepSink& sink_;
};

// A replayed resident: the objects the daemon's residency builder makes.
struct Entry {
  std::unique_ptr<core::RefloatMatrix> rf;
  core::AbftChecksum abft;  // the backend points here; Entry is pinned
  std::unique_ptr<core::SweepBackend> backend;
  bool indefinite = false;
};

}  // namespace

// Replays bursts through the layer calls the daemon makes, keeping its own
// residents, and accumulates the spans per burst.
class Tracer::Impl {
 public:
  Impl(const WorkloadDef& w, const Matrices& matrices, std::uint64_t seed)
      : w_(w), matrices_(matrices) {
    spec_.site = util::FaultSite::kSweep;
    spec_.rate = w.fault_rate;
    spec_.seed = fault_seed(seed);
  }

  void warm(std::size_t key) { build(key, nullptr); }

  // Replays one recorded burst; returns its per-stage wall seconds.
  Stages replay(const BatchRecord& rec, bool check_solo) {
    Stages st;
    if (w_.fault_rate > 0.0) seek_faults(rec.fault_events);
    const std::size_t key = rec.planned.front().key;
    const KeyDef& kd = w_.rotation[key];
    if (!rec.responses.front().cache_hit) {
      build(key, &st);
      ++timed_builds_;
    }
    st.main_build = st.build();
    const std::string id = residency_key(key);
    const std::size_t k = rec.planned.size();
    const std::size_t n = matrices_.at(kd.matrix).csr.rows();
    std::vector<double> b(k * n);
    std::vector<double> tolerances(k, kd.tolerance);
    std::vector<std::uint64_t> seeds(k);
    const double t_rhs = now_s();
    for (std::size_t c = 0; c < k; ++c) {
      const std::vector<double> bc =
          serve::seeded_rhs(n, rec.planned[c].rhs_seed);
      std::copy(bc.begin(), bc.end(), b.begin() + static_cast<long>(c * n));
      seeds[c] = rec.planned[c].noise_seed;
    }
    st.rhs = now_s() - t_rhs;
    solve::SolveOptions options;
    options.max_iterations = w_.serve.max_iterations;
    options.record_trace = false;

    Entry* entry = entries_.at(id).get();
    solve::BatchedSolveResult result =
        run_solve(*entry, *entry->backend, b, k, options, tolerances, seeds,
                  {}, st, /*main=*/true);

    // The daemon's recovery ladder, rung for rung (serve/daemon.cc).
    std::vector<int> retries(k, 0);
    std::vector<bool> degraded(k, false);
    if (w_.serve.max_retries > 0) {
      for (const solve::ColumnFailure& f : result.failures) {
        if (f.status == solve::SolveStatus::kMaxIterations) continue;
        const std::size_t c = f.column;
        solve::SolveResult col = std::move(result.columns[c]);
        const BackendKind kind = kd.backend;
        BackendKind final_kind = kind;
        bool reprogrammed = false, rebuilt = false;
        std::unique_ptr<core::SweepBackend> lower;
        core::AbftChecksum lower_abft;
        for (int attempt = 1; attempt <= w_.serve.max_retries; ++attempt) {
          if (col.status == solve::SolveStatus::kConverged) break;
          const bool corrupted = col.status == solve::SolveStatus::kCorrupted;
          if (attempt > 1) {
            if (kind == BackendKind::kBitTrue && !reprogrammed &&
                !degraded[c]) {
              const double t0 = now_s();
              reprogrammed = entry->backend->reprogram(
                  static_cast<std::uint64_t>(attempt));
              const double dt = now_s() - t0;
              st.program += dt;
              tally_.bit_true_program.push_back(dt);
            } else if (kind != BackendKind::kBitTrue && corrupted &&
                       !rebuilt && !degraded[c]) {
              build(key, &st);
              ++timed_builds_;
              entry = entries_.at(id).get();
              rebuilt = true;
            } else {
              if (final_kind == BackendKind::kValue) break;
              final_kind = final_kind == BackendKind::kBitTrue
                               ? BackendKind::kNoisy
                               : BackendKind::kValue;
              const double sigma = serve::SolveRequest{}.noise_sigma;
              lower = final_kind == BackendKind::kNoisy
                          ? core::make_noisy_backend(*entry->rf, sigma, 0,
                                                     nullptr)
                          : core::make_value_backend(*entry->rf, nullptr);
              if (w_.serve.abft) {
                lower_abft = core::make_abft_checksum(
                    *entry->rf, abft_tolerance(final_kind, sigma));
                lower->set_abft(&lower_abft);
              }
              degraded[c] = true;
            }
          }
          const std::span<const double> x0 =
              corrupted ? std::span<const double>()
                        : std::span<const double>(col.solution);
          solve::SolveOptions opts = options;
          opts.tolerance = tolerances[c];
          solve::BatchedSolveResult again = run_solve(
              *entry, degraded[c] ? *lower : *entry->backend,
              std::span<const double>(b).subspan(c * n, n), 1, opts, {},
              {seeds[c]}, x0, st, /*main=*/false);
          ++retries[c];
          col = std::move(again.columns[0]);
        }
        result.columns[c] = std::move(col);
      }
    }

    // Same answers as the daemon: status, iterations, residual bits and
    // ladder attempts. Degraded answers are exempt.
    for (std::size_t c = 0; c < k; ++c) {
      const serve::SolveResponse& r = rec.responses[c];
      const solve::SolveResult& mine = result.columns[c];
      if (r.degraded || degraded[c]) continue;
      if (r.solve_status != mine.status || r.iterations != mine.iterations ||
          std::bit_cast<std::uint64_t>(r.final_residual) !=
              std::bit_cast<std::uint64_t>(mine.final_residual) ||
          r.retries != retries[c]) {
        error("request %zu (%s): daemon %s/%ld it/%d retries, replay "
              "%s/%ld it/%d retries",
              rec.planned[c].position, id.c_str(),
              solve::status_name(r.solve_status), r.iterations, r.retries,
              solve::status_name(mine.status), mine.iterations, retries[c]);
      }
    }

    // batched == solo from outside: column 0 of the batch, solved alone.
    if (check_solo && k > 1 && !rec.responses.front().degraded) {
      solve::SolveOptions opts = options;
      opts.tolerance = tolerances[0];
      solve::BackendMultiOperator op(*entry->backend,
                                     std::vector<std::uint64_t>{seeds[0]});
      const std::span<const double> b0 =
          std::span<const double>(b).subspan(0, n);
      const solve::BatchedSolveResult solo =
          entry->indefinite ? solve::bicgstab_multi(op, b0, 1, opts)
                            : solve::cg_multi(op, b0, 1, opts);
      const serve::SolveResponse& r = rec.responses.front();
      if (solo.columns[0].status != r.solve_status ||
          solo.columns[0].iterations != r.iterations ||
          std::bit_cast<std::uint64_t>(solo.columns[0].final_residual) !=
              std::bit_cast<std::uint64_t>(r.final_residual)) {
        error("batched != solo on %s: batch column 0 %ld it, solo %ld it",
              id.c_str(), r.iterations, solo.columns[0].iterations);
      }
    }

    if (w_.fault_rate > 0.0) {
      const std::uint64_t events = util::FaultInjector::global()
                                       .site_stats(util::FaultSite::kSweep)
                                       .events;
      if (events != rec.fault_events_after) {
        error("replay of request %zu drew %llu sweep-fault events, the "
              "daemon %llu",
              rec.planned.front().position,
              static_cast<unsigned long long>(events - rec.fault_events),
              static_cast<unsigned long long>(rec.fault_events_after -
                                              rec.fault_events));
        seek_faults(rec.fault_events_after);
      }
    }
    return st;
  }

  const WorkloadDef& w_;
  const Matrices& matrices_;
  Tally tally_;
  long timed_builds_ = 0;
  std::vector<std::string> errors_;
  std::vector<Stages> stages_;  // per replayed burst

 private:
  template <typename... Args>
  void error(const char* fmt, Args... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, fmt, args...);
    errors_.emplace_back(buf);
  }

  std::string residency_key(std::size_t key) const {
    Planned p;
    p.key = key;
    return serve::batch_key(make_request(w_, p));
  }

  // Positions the sweep-site fault stream at event `target` (the stream
  // only counts forward, so rewinding restarts it from event 0).
  void seek_faults(std::uint64_t target) {
    util::FaultInjector& inj = util::FaultInjector::global();
    std::uint64_t events = inj.site_stats(util::FaultSite::kSweep).events;
    if (events > target) {
      inj.configure(spec_);
      events = 0;
    }
    for (; events < target; ++events) {
      (void)inj.should_fire(util::FaultSite::kSweep);
    }
  }

  // The daemon's residency build, one span per layer call.
  void build(std::size_t key, Stages* st) {
    const KeyDef& kd = w_.rotation[key];
    const MatrixDef def = matrix_def(kd.matrix);
    const double sigma = serve::SolveRequest{}.noise_sigma;
    auto e = std::make_unique<Entry>();

    double t0 = now_s();
    const refloat::sparse::Csr a = def.build();
    const double gen = now_s() - t0;

    t0 = now_s();
    e->rf = std::make_unique<core::RefloatMatrix>(a, def.format);
    const double plan = now_s() - t0;

    t0 = now_s();
    switch (kd.backend) {
      case BackendKind::kValue:
        e->backend = core::make_value_backend(*e->rf, nullptr);
        break;
      case BackendKind::kNoisy:
        e->backend = core::make_noisy_backend(*e->rf, sigma, 0, nullptr);
        break;
      case BackendKind::kBitTrue:
        e->backend = std::make_unique<refloat::hw::BitTrueBackend>(
            *e->rf, refloat::hw::ClusterConfig{});
        break;
    }
    const double program = now_s() - t0;

    t0 = now_s();
    if (w_.serve.abft) {
      e->abft = core::make_abft_checksum(*e->rf,
                                         abft_tolerance(kd.backend, sigma));
      e->backend->set_abft(&e->abft);
    }
    const double abft = now_s() - t0;

    t0 = now_s();
    if (e->rf->quantized().rows() == e->rf->quantized().cols()) {
      e->indefinite = e->rf->probe_definiteness().likely_indefinite();
    }
    const double probe = now_s() - t0;

    if (e->rf->nonzero_blocks() != matrices_.at(kd.matrix).blocks) {
      error("%s: built %zu blocks, the model prices %zu", kd.matrix.c_str(),
            e->rf->nonzero_blocks(), matrices_.at(kd.matrix).blocks);
    }
    tally_.gen.push_back(gen);
    tally_.plan.push_back(plan);
    tally_.abft.push_back(abft);
    tally_.probe.push_back(probe);
    if (kd.backend == BackendKind::kBitTrue) {
      tally_.bit_true_program.push_back(program);
    }
    if (st != nullptr) {
      st->gen += gen;
      st->plan += plan;
      st->program += program;
      st->abft += abft;
      st->probe += probe;
    }
    entries_[residency_key(key)] = std::move(e);
  }

  solve::BatchedSolveResult run_solve(const Entry& entry,
                                      core::SweepBackend& backend,
                                      std::span<const double> b,
                                      std::size_t k,
                                      const solve::SolveOptions& options,
                                      std::span<const double> tolerances,
                                      std::vector<std::uint64_t> seeds,
                                      std::span<const double> x0, Stages& st,
                                      bool main) {
    const SweepSink sink{
        backend.kind(),
        static_cast<double>(entry.rf->plan().payload_bytes()),
        static_cast<double>(backend.rows()),
        static_cast<double>(backend.cols()), &st, &tally_};
    solve::BackendMultiOperator op(backend, std::move(seeds));
    TimedOperator timed(op, sink);
    const double c0 = cpu_s();
    const double t0 = now_s();
    solve::BatchedSolveResult r =
        entry.indefinite
            ? solve::bicgstab_multi(timed, b, k, options, tolerances, x0)
            : solve::cg_multi(timed, b, k, options, tolerances, x0);
    const double dt = now_s() - t0;
    tally_.solve_cpu_s += cpu_s() - c0;
    tally_.solve_s += dt;
    ++tally_.solver_calls;
    st.solve += dt;
    if (main) {
      st.main_solve += dt;
      ++tally_.main_calls;
      tally_.batched_applies += r.batched_applies;
    }
    return r;
  }

  util::FaultSpec spec_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

Tracer::Tracer(const WorkloadDef& w, const Matrices& matrices,
               std::uint64_t seed, const std::vector<std::size_t>& warm)
    : impl_(std::make_unique<Impl>(w, matrices, seed)) {
  for (std::size_t key : warm) impl_->warm(key);
}

Tracer::~Tracer() = default;

void Tracer::replay(const BatchRecord& rec, bool check_solo) {
  impl_->stages_.push_back(impl_->replay(rec, check_solo));
}

ReplayOutput Tracer::finish(const std::vector<BatchRecord>& batches) {
  const WorkloadDef& w = impl_->w_;
  const Matrices& matrices = impl_->matrices_;
  const std::vector<Stages>& stages = impl_->stages_;
  const Tally& t = impl_->tally_;
  std::vector<std::string>& errors = impl_->errors_;

  // Per-request views of the daemon pass and of the replayed stages.
  std::vector<double> e2e, queue, window, rhs, gen, plan, program, abft, probe,
      sweep, self, overhead, other, build_ms, solve_ms, retried;
  std::vector<double> k_inv, iterations, spmv_model, vector_model,
      program_model;
  double hits = 0.0, retries = 0.0, requests = 0.0;
  long evictions = 0, builds = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchRecord& rec = batches[i];
    const Stages& st = stages[i];
    const KeyDef& key = w.rotation[rec.planned.front().key];
    evictions += static_cast<long>(rec.evictions);
    builds += rec.builds;
    for (const serve::SolveResponse& r : rec.responses) {
      const serve::LatencyBreakdown& l = r.latency;
      requests += 1.0;
      e2e.push_back(l.total_seconds);
      queue.push_back(l.queue_seconds);
      // Policy, not a measurement: a partial batch waits out the window.
      window.push_back(r.batch_k < w.serve.max_batch
                           ? w.serve.batch_window_ms * 1e-3
                           : 0.0);
      rhs.push_back(st.rhs);
      gen.push_back(st.gen);
      plan.push_back(st.plan);
      program.push_back(st.program);
      abft.push_back(st.abft);
      probe.push_back(st.probe);
      sweep.push_back(st.sweep);
      self.push_back(st.solve - st.sweep);
      overhead.push_back(st.main_build + st.main_solve - l.build_seconds -
                         l.solve_seconds);
      build_ms.push_back(l.build_seconds);
      solve_ms.push_back(l.solve_seconds);
      other.push_back(l.total_seconds - l.queue_seconds - l.build_seconds -
                      l.solve_seconds);
      if (r.cache_hit) hits += 1.0;
      retries += r.retries;
      if (r.retries > 0) retried.push_back(l.total_seconds * 1e3);
      k_inv.push_back(1.0 / static_cast<double>(r.batch_k));
      iterations.push_back(static_cast<double>(r.iterations));
      const ModelTime m = model_request(key, matrices.at(key.matrix), r);
      spmv_model.push_back(m.spmv_s);
      vector_model.push_back(m.vector_s);
      program_model.push_back(m.program_s);
    }
  }
  if (impl_->timed_builds_ != builds) {
    errors.push_back(
        "replay built " + std::to_string(impl_->timed_builds_) +
        " residents, the daemon's builder ran " + std::to_string(builds) +
        " times");
  }

  const struct {
    const char* name;
    const std::vector<double>* values;
    const char* note;
  } ledger[] = {
      {"serve.queue", &queue, "daemon: submit -> dequeue"},
      {"serve.window", &window, "policy: a partial batch waits the window"},
      {"serve.rhs", &rhs, "replay span: serve::seeded_rhs of the burst"},
      {"gen.build", &gen, "replay span"},
      {"core.plan", &plan, "replay span"},
      {"backend.make", &program, "replay span (bit-true: hw programming)"},
      {"core.abft", &abft, "replay span"},
      {"core.probe", &probe, "replay span"},
      {"core.sweep", &sweep, "replay span (MultiOperator decorator)"},
      {"solvers.self", &self, "replay: solver calls minus sweeps"},
  };
  double stage_sum = 0.0;
  std::printf("\nledger: %s, %.0f requests, mean ms per request\n",
              w.name.c_str(), requests);
  for (const auto& row : ledger) {
    const double ms = mean(*row.values) * 1e3;
    stage_sum += ms;
    std::printf("  %-18s %10.4f   %s\n", row.name, ms, row.note);
  }
  const double e2e_ms = mean(e2e) * 1e3;
  const double unattributed = e2e_ms > 0.0 ? 1.0 - stage_sum / e2e_ms : 0.0;
  const double overhead_ms = mean(overhead) * 1e3;
  std::printf("  %-18s %10.4f\n", "stage sum", stage_sum);
  std::printf("  %-18s %10.4f   daemon: submit -> reply\n", "e2e", e2e_ms);
  std::printf("  %-18s %10.4f   slack +-%.2f\n", "unattributed_frac",
              unattributed, kLedgerSlack);
  std::printf("  %-18s %10.4f   ms, traced replay minus the daemon's own "
              "build+solve timers\n",
              "tracing overhead", overhead_ms);
  if (!(unattributed <= kLedgerSlack && unattributed >= -kLedgerSlack)) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "unattributed_frac %.4f outside the +-%.2f slack",
                  unattributed, kLedgerSlack);
    errors.emplace_back(buf);
  }

  const auto sweep_class = [&t](const char* name) {
    auto it = t.sweeps.find(name);
    return it == t.sweeps.end() ? SweepClass{} : it->second;
  };
  const SweepClass v1 = sweep_class("value/k1");
  const SweepClass v8 = sweep_class("value/k8");
  const SweepClass n8 = sweep_class("noisy/k8");
  const SweepClass b1 = sweep_class("bittrue/k1");
  const auto per_call_us = [](const SweepClass& c) {
    return c.calls == 0 ? 0.0 : c.seconds / static_cast<double>(c.calls) * 1e6;
  };
  const auto per_col_us = [](const SweepClass& c) {
    return c.columns == 0.0 ? 0.0 : c.seconds / c.columns * 1e6;
  };
  double k_inv_sum = 0.0;
  for (double x : k_inv) k_inv_sum += x;

  ReplayOutput out;
  out.builds = impl_->timed_builds_;
  out.sweeps = t.sweep_calls;
  out.errors = std::move(errors);
  out.metrics = {
      {"serve.queue_ms", mean(queue) * 1e3},
      {"serve.build_ms", mean(build_ms) * 1e3},
      {"serve.solve_ms", mean(solve_ms) * 1e3},
      {"serve.other_ms", mean(other) * 1e3},
      {"serve.batch_k_mean", k_inv_sum > 0.0 ? requests / k_inv_sum : 0.0},
      {"serve.cache_hit_frac", requests > 0.0 ? hits / requests : 0.0},
      {"serve.evictions", static_cast<double>(evictions)},
      {"serve.retries", retries},
      {"serve.retried_latency_ms", median(retried)},
      {"gen.build_ms", mean(t.gen) * 1e3},
      {"gen.builds", static_cast<double>(builds)},
      {"core.plan_ms", mean(t.plan) * 1e3},
      {"core.abft_ms", mean(t.abft) * 1e3},
      {"core.probe_ms", mean(t.probe) * 1e3},
      {"core.sweep_us_k1", per_call_us(v1)},
      {"core.sweep_us_per_col_k8", per_col_us(v8)},
      {"core.noisy_sweep_us_per_col_k8", per_col_us(n8)},
      {"core.sweeps", static_cast<double>(t.sweep_calls)},
      {"core.sweep_share", t.solve_s > 0.0 ? t.sweep_s / t.solve_s : 0.0},
      {"core.sweep_gbps_computed",
       t.computed_bytes_s > 0.0 ? t.computed_bytes / t.computed_bytes_s * 1e-9
                                : 0.0},
      {"hw.program_ms", mean(t.bit_true_program) * 1e3},
      {"hw.sweep_us_k1", per_call_us(b1)},
      {"solvers.self_ms_per_solve",
       t.solver_calls == 0 ? 0.0
                           : (t.solve_s - t.sweep_s) /
                                 static_cast<double>(t.solver_calls) * 1e3},
      {"solvers.iterations_mean", mean(iterations)},
      {"solvers.applies_per_batch",
       t.main_calls == 0 ? 0.0
                         : static_cast<double>(t.batched_applies) /
                               static_cast<double>(t.main_calls)},
      {"util.cpu_per_wall", t.solve_s > 0.0 ? t.solve_cpu_s / t.solve_s : 0.0},
      {"arch.model_spmv_ms", mean(spmv_model) * 1e3},
      {"arch.model_vector_ms", mean(vector_model) * 1e3},
      {"arch.model_program_ms", mean(program_model) * 1e3},
      {"unattributed_frac", unattributed},
      {"trace.overhead_ms", overhead_ms},
  };
  return out;
}

}  // namespace perfbench
