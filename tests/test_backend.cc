// The SweepBackend contract (docs/ARCHITECTURE.md "Execution backends"):
// a default-context sweep equals the explicit context it stands for, the
// bit-true k = 1 sweep equals HwSpmv::apply with a caller-owned Rng, and
// column j of a k-RHS sweep or solve is bit-identical to a solo run of
// that column — at any thread count, any tile split, and through
// converged-column dropout. These are the pins that let the solvers and
// the serving layer treat value / noisy / bit-true as one interface.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/core/tiled_plan.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/hw/hw_spmv.h"
#include "src/solvers/batched.h"
#include "src/solvers/cg.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace refloat {
namespace {

sparse::Csr test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

std::vector<double> test_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  util::Rng rng(seed);
  for (double& v : x) v = rng.gaussian();
  return x;
}

TEST(SweepBackend, KindNamesRoundTrip) {
  using core::BackendKind;
  for (BackendKind kind : {BackendKind::kValue, BackendKind::kNoisy,
                           BackendKind::kBitTrue}) {
    BackendKind parsed = BackendKind::kValue;
    ASSERT_TRUE(core::parse_backend_kind(core::backend_kind_name(kind),
                                         &parsed));
    EXPECT_EQ(parsed, kind);
  }
  BackendKind unchanged = BackendKind::kNoisy;
  EXPECT_FALSE(core::parse_backend_kind("quantum", &unchanged));
  EXPECT_EQ(unchanged, core::BackendKind::kNoisy);
}

TEST(SweepBackend, ValueK1MatchesTiledAndBatchedColumn) {
  // The k = 1 sweep (single-RHS kernels, no interleave) must equal the
  // tile-sharded sweep and column 1 of a k = 3 interleaved sweep.
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> x = test_vector(n, 7);

  auto untiled = core::make_value_backend(rf);
  EXPECT_EQ(untiled->kind(), core::BackendKind::kValue);
  EXPECT_STREQ(untiled->label(), "refloat");
  EXPECT_EQ(untiled->rows(), n);
  std::vector<double> want(n);
  untiled->sweep(x, 1, want, {});

  std::vector<double> x3(3 * n, 0.5);
  std::copy(x.begin(), x.end(), x3.begin() + static_cast<long>(n));
  for (int tiles : {1, 4}) {
    auto backend = core::make_value_backend(rf, tiles);
    std::vector<double> got(n), got3(3 * n);
    backend->sweep(x, 1, got, {});
    backend->sweep(x3, 3, got3, {});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "tiles " << tiles << " row " << i;
      ASSERT_EQ(got3[n + i], want[i]) << "tiles " << tiles << " row " << i;
    }
  }
}

TEST(SweepBackend, NoisyDefaultContextIsExplicitSeedSequence) {
  // With an empty context, sweep number s must draw exactly the streams of
  // the explicit context {seeds = {seed}, sequences = {s}} — the stream a
  // serial solve consumes, and the one BackendMultiOperator hands column 0.
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const double sigma = 1e-2;
  const std::uint64_t seed = 99;
  const std::vector<double> x = test_vector(n, 8);

  auto implicit = core::make_noisy_backend(rf, sigma, seed);
  auto explicit_ctx = core::make_noisy_backend(rf, sigma, /*seed=*/0);
  std::vector<double> got(n), want(n);
  for (std::uint64_t sequence = 0; sequence < 3; ++sequence) {
    implicit->sweep(x, 1, got, {});
    const std::uint64_t seeds[] = {seed};
    const std::uint64_t sequences[] = {sequence};
    explicit_ctx->sweep(x, 1, want,
                        {.seeds = seeds, .sequences = sequences});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "sequence " << sequence << " row " << i;
    }
  }
}

TEST(SweepBackend, BitTrueK1BitIdenticalToHwApply) {
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> x = test_vector(n, 9);

  hw::ClusterConfig config;
  config.faults.stuck_at_zero_rate = 5e-2;
  config.noise.sigma = 1e-2;
  const std::uint64_t seed = 0x515;

  // One Rng owned by the caller, advanced once per apply.
  hw::HwSpmv direct(rf, config);
  util::Rng direct_rng(seed);
  std::vector<double> want(n);

  auto backend = std::make_unique<hw::BitTrueBackend>(rf, config, seed);
  std::vector<double> got(n);
  for (int sweep = 0; sweep < 3; ++sweep) {
    direct.apply(x, want, direct_rng);
    backend->sweep(x, 1, got, {});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "sweep " << sweep << " row " << i;
    }
  }
}

TEST(SweepBackend, BatchedNoisySolveMatchesSoloAtAnyThreadsAndTiles) {
  // The tentpole determinism pin: column j of a k-RHS noisy solve is
  // bit-identical to the solo solve with that column's forked seed, at
  // 1/2/8 threads x 1/4 tiles.
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 3;
  const double sigma = 1e-3;
  const std::uint64_t seed = 0xfeedULL;
  std::vector<double> b = solve::make_rhs_batch(a, k);
  // Desynchronize convergence so dropout re-packs the active columns.
  for (std::size_t i = 0; i < n; ++i) b[n + i] *= 30.0;

  solve::SolveOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 2000;

  // Solo references, untiled at one thread, with the per-column seeds
  // BackendMultiOperator forks from `seed`.
  util::ThreadPool::set_global_threads(1);
  std::vector<solve::SolveResult> solo;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t seed_j =
        j == 0 ? seed : util::stream_seed(seed, j, core::kColumnForkSalt);
    auto op = core::make_noisy_backend(rf, sigma, seed_j, /*tiles=*/1);
    solo.push_back(
        solve::cg(*op, std::span<const double>(b).subspan(j * n, n), opts));
  }
  ASSERT_NE(solo[0].iterations, solo[1].iterations);

  for (int threads : {1, 2, 8}) {
    for (int tiles : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      auto backend = core::make_noisy_backend(rf, sigma, seed, tiles);
      solve::BackendMultiOperator multi(*backend, k, seed);
      const solve::BatchedSolveResult batch =
          solve::cg_multi(multi, b, k, opts);
      ASSERT_EQ(batch.columns.size(), k);
      for (std::size_t j = 0; j < k; ++j) {
        const solve::SolveResult& got = batch.columns[j];
        const solve::SolveResult& want = solo[j];
        ASSERT_EQ(got.status, want.status)
            << threads << " threads, " << tiles << " tiles, column " << j;
        ASSERT_EQ(got.iterations, want.iterations)
            << threads << " threads, " << tiles << " tiles, column " << j;
        ASSERT_EQ(got.final_residual, want.final_residual)
            << threads << " threads, " << tiles << " tiles, column " << j;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got.solution[i], want.solution[i])
              << threads << " threads, " << tiles << " tiles, column " << j
              << " row " << i;
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(HwSpmvBatched, ApplyMultiBitIdenticalToSequentialSameFaultSeed) {
  // One programming pass serves all k columns: apply_multi on one HwSpmv
  // must equal k solo applies against a SECOND HwSpmv built with the same
  // fault seed (the sequential-programming baseline), column by column,
  // bit for bit — including the per-column noise streams.
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;

  hw::ClusterConfig config;
  config.faults.stuck_at_zero_rate = 3e-2;
  config.faults.stuck_at_one_rate = 1e-2;
  config.noise.sigma = 5e-3;

  hw::HwSpmv batched(rf, config);
  hw::HwSpmv sequential(rf, config);  // same fault seed -> same population

  std::vector<double> x(k * n), want(k * n), got(k * n);
  std::vector<std::uint64_t> bases(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::vector<double> xj = test_vector(n, 40 + j);
    std::copy(xj.begin(), xj.end(), x.begin() + static_cast<long>(j * n));
    util::Rng rng(1000 + j);
    bases[j] = rng.next();
    util::Rng solo_rng(1000 + j);
    std::vector<double> yj(n);
    sequential.apply(xj, yj, solo_rng);
    std::copy(yj.begin(), yj.end(), want.begin() + static_cast<long>(j * n));
  }

  batched.apply_multi(x, k, got, bases);
  for (std::size_t i = 0; i < k * n; ++i) {
    ASSERT_EQ(got[i], want[i]) << "slot " << i;
  }
}

TEST(SweepBackend, BatchedBitTrueSolveMatchesSoloSolve) {
  // The serving path end to end: a batched bit-true solve through
  // BackendMultiOperator reproduces each column's solo solve (same
  // programmed image, per-column noise identities).
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  std::vector<double> b = solve::make_rhs_batch(a, k);

  solve::SolveOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 2000;

  hw::ClusterConfig config;  // ideal datapath: deterministic bit-true
  std::vector<solve::SolveResult> solo;
  for (std::size_t j = 0; j < k; ++j) {
    auto backend = std::make_unique<hw::BitTrueBackend>(rf, config);
    solve::BackendMultiOperator op(*backend, 1);
    const solve::BatchedSolveResult one = solve::cg_multi(
        op, std::span<const double>(b).subspan(j * n, n), 1, opts);
    solo.push_back(one.columns[0]);
  }

  auto backend = std::make_unique<hw::BitTrueBackend>(rf, config);
  solve::BackendMultiOperator multi(*backend, k);
  const solve::BatchedSolveResult batch = solve::cg_multi(multi, b, k, opts);
  for (std::size_t j = 0; j < k; ++j) {
    ASSERT_EQ(batch.columns[j].status, solo[j].status) << "column " << j;
    ASSERT_EQ(batch.columns[j].iterations, solo[j].iterations)
        << "column " << j;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch.columns[j].solution[i], solo[j].solution[i])
          << "column " << j << " row " << i;
    }
  }
  EXPECT_LT(batch.batched_applies, batch.column_applies);
}

}  // namespace
}  // namespace refloat
