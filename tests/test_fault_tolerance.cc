// Fault-tolerance primitives: the deterministic FaultInjector (spec
// grammar, counter-based replay, budgets, corruption), ABFT checked sweeps
// on all three execution views (clean operators verify, corrupted outputs
// and corrupted plans are flagged, checking never perturbs Y), and the
// lockstep drivers' kCorrupted reporting (single-RHS solves included) +
// warm-start restart — the pieces the serving daemon's recovery ladder is
// assembled from.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/solvers/batched.h"
#include "src/util/fault_injector.h"

namespace refloat {
namespace {

using util::FaultInjector;
using util::FaultSite;
using util::FaultSpec;

sparse::Csr test_csr() {
  return gen::build_stencil(gen::laplace2d_5pt(12, 10)).shifted(0.2);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

// Restores the process-global injector to disarmed whatever the test does —
// the sweep site is consulted by every backend sweep in the process.
struct GlobalInjectorGuard {
  GlobalInjectorGuard() { FaultInjector::global().disable_all(); }
  ~GlobalInjectorGuard() { FaultInjector::global().disable_all(); }
};

TEST(FaultSpec, ParsesFullAndDefaultedForms) {
  FaultSpec spec;
  ASSERT_TRUE(util::parse_fault_spec("sweep:0.125:42:7", &spec, nullptr));
  EXPECT_EQ(spec.site, FaultSite::kSweep);
  EXPECT_DOUBLE_EQ(spec.rate, 0.125);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.budget, 7);

  ASSERT_TRUE(util::parse_fault_spec("plan:1", &spec, nullptr));
  EXPECT_EQ(spec.site, FaultSite::kPlanBuild);
  EXPECT_DOUBLE_EQ(spec.rate, 1.0);
  EXPECT_EQ(spec.budget, -1);  // unlimited by default

  ASSERT_TRUE(util::parse_fault_spec("build:0.5", &spec, nullptr));
  EXPECT_EQ(spec.site, FaultSite::kCacheBuild);
  ASSERT_TRUE(util::parse_fault_spec("admission:0.5", &spec, nullptr));
  EXPECT_EQ(spec.site, FaultSite::kAdmission);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(util::parse_fault_spec("", &spec, &error));
  EXPECT_FALSE(util::parse_fault_spec("sweep", &spec, &error));
  EXPECT_FALSE(util::parse_fault_spec("warp:0.5", &spec, &error));
  EXPECT_FALSE(util::parse_fault_spec("sweep:nope", &spec, &error));
  EXPECT_FALSE(util::parse_fault_spec("sweep:2.0", &spec, &error));
  EXPECT_FALSE(util::parse_fault_spec("sweep:-0.1", &spec, &error));
  EXPECT_FALSE(util::parse_fault_spec("sweep:0.5:12bad", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultInjectorTest, FiringSequenceReplaysExactly) {
  FaultSpec spec;
  ASSERT_TRUE(util::parse_fault_spec("sweep:0.01:123", &spec, nullptr));

  FaultInjector a;
  FaultInjector b;
  a.configure(spec);
  b.configure(spec);
  std::vector<bool> trace_a, trace_b;
  for (int i = 0; i < 20000; ++i) {
    trace_a.push_back(a.should_fire(FaultSite::kSweep));
  }
  for (int i = 0; i < 20000; ++i) {
    trace_b.push_back(b.should_fire(FaultSite::kSweep));
  }
  EXPECT_EQ(trace_a, trace_b);

  // The empirical rate lands near the configured one (binomial, n = 20000).
  const auto stats = a.site_stats(FaultSite::kSweep);
  EXPECT_EQ(stats.events, 20000u);
  EXPECT_GT(stats.fired, 100u);
  EXPECT_LT(stats.fired, 320u);

  // Reconfiguring resets the counters: the trace replays from event 0.
  a.configure(spec);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.should_fire(FaultSite::kSweep), trace_b[i]) << "event " << i;
  }
}

TEST(FaultInjectorTest, BudgetBoundsFiringsThenDisarms) {
  FaultInjector inj;
  ASSERT_TRUE(inj.configure_from_text("sweep:1:9:3"));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (inj.should_fire(FaultSite::kSweep)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(inj.armed(FaultSite::kSweep));
  EXPECT_EQ(inj.total_fired(), 3u);
}

TEST(FaultInjectorTest, SitesAreIndependentStreams) {
  FaultInjector inj;
  ASSERT_TRUE(inj.configure_from_text("sweep:1:7:1,plan:1:7:1"));
  EXPECT_TRUE(inj.should_fire(FaultSite::kSweep));
  EXPECT_FALSE(inj.armed(FaultSite::kSweep));   // budget spent
  EXPECT_TRUE(inj.armed(FaultSite::kPlanBuild));  // untouched
  EXPECT_TRUE(inj.should_fire(FaultSite::kPlanBuild));
  EXPECT_FALSE(inj.should_fire(FaultSite::kAdmission));  // never armed
}

TEST(FaultInjectorTest, CorruptionIsDeterministicAndVisible) {
  const std::vector<double> clean(64, 1.0);
  FaultInjector a;
  FaultInjector b;
  ASSERT_TRUE(a.configure_from_text("sweep:1:31:4"));
  ASSERT_TRUE(b.configure_from_text("sweep:1:31:4"));

  for (int round = 0; round < 4; ++round) {
    std::vector<double> ya = clean;
    std::vector<double> yb = clean;
    ASSERT_TRUE(a.maybe_corrupt(FaultSite::kSweep, ya));
    ASSERT_TRUE(b.maybe_corrupt(FaultSite::kSweep, yb));
    // Same event number -> same element, same corrupted bits.
    int diffs = 0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
      const bool da = ya[i] != clean[i] || std::isnan(ya[i]);
      const bool db = yb[i] != clean[i] || std::isnan(yb[i]);
      EXPECT_EQ(da, db) << "round " << round << " element " << i;
      if (da) {
        ++diffs;
        if (!std::isnan(ya[i])) {
          EXPECT_EQ(std::isnan(yb[i]), false);
          EXPECT_EQ(ya[i], yb[i]);
        }
      }
    }
    EXPECT_EQ(diffs, 1) << "exactly one element corrupted per firing";
  }
  // Budget exhausted: no further corruption.
  std::vector<double> y = clean;
  EXPECT_FALSE(a.maybe_corrupt(FaultSite::kSweep, y));
  EXPECT_EQ(y, clean);
}

// --- ABFT checked sweeps ---------------------------------------------------

TEST(Abft, ChecksumMatchesColumnSums) {
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const core::AbftChecksum abft = core::make_abft_checksum(rf);
  ASSERT_EQ(abft.colsum.size(),
            static_cast<std::size_t>(rf.quantized().cols()));
  // Checksumᵀ·e_j must equal the j-th column sum of the dequantized CSR:
  // contract against the all-ones vector and compare with a dense sum.
  double total = 0.0;
  for (const double c : abft.colsum) total += c;
  double dense = 0.0;
  for (const double v : rf.quantized().values()) dense += v;
  EXPECT_NEAR(total, dense, 1e-9 * std::abs(dense));
}

TEST(Abft, CleanSweepsVerifyOnAllBackends) {
  GlobalInjectorGuard guard;
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 3;
  const std::vector<double> x = solve::make_rhs_batch(a, k);
  std::vector<double> y(k * n, 0.0);

  const core::AbftChecksum value_abft = core::make_abft_checksum(rf, 1e-6);
  const core::AbftChecksum noisy_abft = core::make_abft_checksum(rf, 1.0);
  const core::AbftChecksum bittrue_abft = core::make_abft_checksum(rf, 1e-3);

  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  const std::vector<std::uint64_t> seqs = {0, 0, 0};
  core::SweepVerdict verdict;
  const core::SweepContext ctx{seeds, seqs, &verdict};

  auto value = core::make_value_backend(rf);
  value->set_abft(&value_abft);
  value->sweep(x, k, y, ctx);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << "value worst_error=" << verdict.worst_error;
  EXPECT_LE(verdict.worst_error, 1e-6);

  auto noisy = core::make_noisy_backend(rf, /*sigma=*/0.02, /*seed=*/5);
  noisy->set_abft(&noisy_abft);
  noisy->sweep(x, k, y, ctx);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << "noisy worst_error=" << verdict.worst_error;

  hw::BitTrueBackend bittrue(rf, hw::ClusterConfig{});
  bittrue.set_abft(&bittrue_abft);
  bittrue.sweep(x, k, y, ctx);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << "bittrue worst_error=" << verdict.worst_error;
}

TEST(Abft, CheckedSweepIsBitIdenticalToUnchecked) {
  GlobalInjectorGuard guard;
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  const std::vector<double> x = solve::make_rhs_batch(a, k);
  const core::AbftChecksum abft = core::make_abft_checksum(rf);

  std::vector<double> y_plain(k * n, 0.0);
  std::vector<double> y_checked(k * n, 0.0);
  core::SweepVerdict verdict;

  auto plain = core::make_value_backend(rf);
  plain->sweep(x, k, y_plain, {});

  auto checked = core::make_value_backend(rf);
  checked->set_abft(&abft);
  checked->sweep(x, k, y_checked, core::SweepContext{{}, {}, &verdict});
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok);
  for (std::size_t i = 0; i < y_plain.size(); ++i) {
    ASSERT_EQ(y_plain[i], y_checked[i]) << "element " << i;
  }
}

TEST(Abft, InjectedSweepCorruptionIsFlaggedPerColumn) {
  GlobalInjectorGuard guard;
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 3;
  const std::vector<double> x = solve::make_rhs_batch(a, k);
  std::vector<double> y(k * n, 0.0);
  const core::AbftChecksum abft = core::make_abft_checksum(rf);

  // rate = 1, budget = 1: exactly the first column of the sweep corrupts
  // (columns consume injector events in serial column order).
  ASSERT_TRUE(
      FaultInjector::global().configure_from_text("sweep:1:77:1"));
  core::SweepVerdict verdict;
  auto backend = core::make_value_backend(rf);
  backend->set_abft(&abft);
  backend->sweep(x, k, y, core::SweepContext{{}, {}, &verdict});

  EXPECT_TRUE(verdict.checked);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.bad_columns.size(), 1u);
  EXPECT_EQ(verdict.bad_columns[0], 0u);
  EXPECT_GT(verdict.worst_error, verdict.tolerance);

  // Budget spent: the next sweep is clean again.
  backend->sweep(x, k, y, core::SweepContext{{}, {}, &verdict});
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok);
}

TEST(Abft, SilentPlanCorruptionIsCaught) {
  GlobalInjectorGuard guard;
  const sparse::Csr a = test_csr();
  core::RefloatMatrix rf(a, test_format());
  ASSERT_GT(rf.plan().entry_value.size(), 0u);
  // The checksum comes from quantized(), not the plan — so damaging the
  // plan arena after the checksum is computed must be visible.
  const core::AbftChecksum abft = core::make_abft_checksum(rf);
  rf.mutable_plan().entry_value[0] += 1e3;

  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> x(n, 1.0);
  std::vector<double> y(n, 0.0);
  core::SweepVerdict verdict;
  auto backend = core::make_value_backend(rf);
  backend->set_abft(&abft);
  backend->sweep(x, 1, y, core::SweepContext{{}, {}, &verdict});
  EXPECT_TRUE(verdict.checked);
  EXPECT_FALSE(verdict.ok);
}

// --- Lockstep drivers: kCorrupted reporting and warm start -----------------

TEST(FaultySolve, CgMultiReportsCorruptedColumnWithLastGoodIterate) {
  GlobalInjectorGuard guard;
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t k = 2;
  const std::vector<double> b = solve::make_rhs_batch(a, k);
  const core::AbftChecksum abft = core::make_abft_checksum(rf);

  auto backend = core::make_value_backend(rf);
  backend->set_abft(&abft);
  solve::BackendMultiOperator op(*backend, k);
  solve::SolveOptions options;
  options.tolerance = 1e-8;

  // Corrupt exactly one column's first apply: that column must finalize
  // kCorrupted with x untouched (still the zero start), the other column
  // must converge as if nothing happened.
  ASSERT_TRUE(FaultInjector::global().configure_from_text("sweep:1:5:1"));
  const solve::BatchedSolveResult result =
      solve::cg_multi(op, b, k, options);

  ASSERT_EQ(result.failures.size(), 1u);
  const solve::ColumnFailure& failure = result.failures[0];
  EXPECT_EQ(failure.column, 0u);
  EXPECT_EQ(failure.status, solve::SolveStatus::kCorrupted);
  EXPECT_EQ(result.columns[0].status, solve::SolveStatus::kCorrupted);
  for (const double v : result.columns[0].solution) {
    ASSERT_EQ(v, 0.0) << "corrupted apply must not touch x";
  }
  EXPECT_EQ(result.columns[1].status, solve::SolveStatus::kConverged);

  // The clean re-solve (the ladder's first rung) is bit-identical to a
  // fault-free solve: the injector is spent, nothing else changed.
  FaultInjector::global().disable_all();
  const std::size_t n = result.columns[0].solution.size();
  solve::BackendMultiOperator clean_op(*backend, 1);
  const solve::BatchedSolveResult clean = solve::cg_multi(
      clean_op, std::span<const double>(b).first(n), 1, options);
  EXPECT_EQ(clean.columns[0].status, solve::SolveStatus::kConverged);
}

TEST(FaultySolve, WarmStartResumesFromIterate) {
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  auto backend = core::make_value_backend(rf);
  solve::BackendMultiOperator op(*backend, 1);
  solve::SolveOptions options;
  options.tolerance = 1e-8;

  const solve::BatchedSolveResult full = solve::cg_multi(op, b, 1, options);
  ASSERT_EQ(full.columns[0].status, solve::SolveStatus::kConverged);

  // Warm-starting from the converged solution terminates on the pre-loop
  // residual check. The re-applied b - A x0 carries the backend's vector
  // quantization floor (~1e-3 at b = 4), not the 1e-8 recurrence residual,
  // so the check-0 exit is observable only at a tolerance above that floor.
  solve::SolveOptions coarse = options;
  coarse.tolerance = 1e-2;
  solve::BackendMultiOperator op2(*backend, 1);
  const solve::BatchedSolveResult resumed = solve::cg_multi(
      op2, b, 1, coarse, {}, full.columns[0].solution);
  EXPECT_EQ(resumed.columns[0].status, solve::SolveStatus::kConverged);
  EXPECT_EQ(resumed.columns[0].iterations, 1);  // converged-at-check-0 reports 1

  // At the tight tolerance the warm start still re-enters below the cold
  // start's initial residual and reconverges in strictly fewer iterations.
  solve::BackendMultiOperator op_tight(*backend, 1);
  const solve::BatchedSolveResult retight = solve::cg_multi(
      op_tight, b, 1, options, {}, full.columns[0].solution);
  EXPECT_EQ(retight.columns[0].status, solve::SolveStatus::kConverged);
  EXPECT_LT(retight.columns[0].iterations, full.columns[0].iterations);

  // Warm-starting from a truncated run needs strictly fewer iterations
  // than starting over.
  solve::SolveOptions short_opts = options;
  short_opts.max_iterations = 5;
  solve::BackendMultiOperator op3(*backend, 1);
  const solve::BatchedSolveResult partial =
      solve::cg_multi(op3, b, 1, short_opts);
  ASSERT_EQ(partial.columns[0].status, solve::SolveStatus::kMaxIterations);
  ASSERT_EQ(partial.columns[0].solution.size(), n);

  solve::BackendMultiOperator op4(*backend, 1);
  const solve::BatchedSolveResult finish = solve::cg_multi(
      op4, b, 1, options, {}, partial.columns[0].solution);
  EXPECT_EQ(finish.columns[0].status, solve::SolveStatus::kConverged);
  EXPECT_LT(finish.columns[0].iterations, full.columns[0].iterations);
}

TEST(FaultySolve, BicgstabMultiReportsCorruption) {
  GlobalInjectorGuard guard;
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 10)).shifted(-4.0);
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t k = 2;
  const std::vector<double> b = solve::make_rhs_batch(a, k);
  const core::AbftChecksum abft = core::make_abft_checksum(rf);

  auto backend = core::make_value_backend(rf);
  backend->set_abft(&abft);
  solve::BackendMultiOperator op(*backend, k);
  solve::SolveOptions options;
  options.tolerance = 1e-8;

  ASSERT_TRUE(FaultInjector::global().configure_from_text("sweep:1:13:1"));
  const solve::BatchedSolveResult result =
      solve::bicgstab_multi(op, b, k, options);
  ASSERT_GE(result.failures.size(), 1u);
  bool corrupted_seen = false;
  for (const solve::ColumnFailure& f : result.failures) {
    if (f.status == solve::SolveStatus::kCorrupted) corrupted_seen = true;
  }
  EXPECT_TRUE(corrupted_seen);
}

// solve::cg / solve::bicgstab are k = 1 lockstep runs, so a checked
// backend's verdict finalizes the single-RHS solve too: the first apply
// corrupts, the solve reports kCorrupted with x still the zero start, and
// a clean re-solve on the same backend converges.
TEST(FaultySolve, SingleRhsSolversReportCorruption) {
  GlobalInjectorGuard guard;
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const std::vector<double> b = solve::make_rhs(a);
  const core::AbftChecksum abft = core::make_abft_checksum(rf);
  auto backend = core::make_value_backend(rf);
  backend->set_abft(&abft);
  solve::SolveOptions options;
  options.tolerance = 1e-8;

  for (const auto solver : {&solve::cg, &solve::bicgstab}) {
    ASSERT_TRUE(FaultInjector::global().configure_from_text("sweep:1:5:1"));
    const solve::SolveResult hit = solver(*backend, b, options);
    EXPECT_EQ(hit.status, solve::SolveStatus::kCorrupted);
    for (const double v : hit.solution) {
      ASSERT_EQ(v, 0.0) << "corrupted apply must not touch x";
    }
    FaultInjector::global().disable_all();
    EXPECT_EQ(solver(*backend, b, options).status,
              solve::SolveStatus::kConverged);
  }
}

TEST(FaultySolve, WarmStartApplyRejectedReportsInfiniteResidual) {
  // The x0 apply is the column's first sweep. When ABFT rejects it, no
  // residual was ever computed: cg_multi and bicgstab_multi must report
  // +infinity, not a 0.0 that reads as perfectly converged.
  GlobalInjectorGuard guard;
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
  const core::RefloatMatrix rf(a, test_format());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);
  const std::vector<double> x0(b.size(), 0.01);
  const core::AbftChecksum abft = core::make_abft_checksum(rf);
  auto backend = core::make_value_backend(rf);
  backend->set_abft(&abft);
  solve::SolveOptions options;
  options.tolerance = 1e-8;

  for (const bool use_cg : {true, false}) {
    ASSERT_TRUE(FaultInjector::global().configure_from_text("sweep:1:7:1"));
    solve::BackendMultiOperator op(*backend, 1);
    const solve::BatchedSolveResult result =
        use_cg ? solve::cg_multi(op, b, 1, options, {}, x0)
               : solve::bicgstab_multi(op, b, 1, options, {}, x0);
    const char* solver = use_cg ? "cg_multi" : "bicgstab_multi";
    const solve::SolveResult& col = result.columns[0];
    EXPECT_EQ(col.status, solve::SolveStatus::kCorrupted) << solver;
    EXPECT_EQ(col.iterations, 0) << solver;
    EXPECT_TRUE(std::isinf(col.final_residual) && col.final_residual > 0)
        << solver << " final_residual " << col.final_residual;
    ASSERT_EQ(result.failures.size(), 1u) << solver;
    EXPECT_TRUE(std::isinf(result.failures[0].last_good_residual))
        << solver << " last_good_residual "
        << result.failures[0].last_good_residual;
  }
}

}  // namespace
}  // namespace refloat
