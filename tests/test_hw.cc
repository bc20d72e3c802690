#include <gtest/gtest.h>

#include <cmath>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/engine.h"
#include "src/hw/hw_spmv.h"
#include "src/util/random.h"

namespace refloat::hw {
namespace {

TEST(CrossbarCluster, BitSerialMvmIsExactWithWideAdc) {
  // 8x8 integer matrix, codes < 2^5, inputs < 2^4: bit-true result must
  // equal the integer product when the ADC never clips.
  util::Rng rng(21);
  std::vector<std::vector<std::uint64_t>> m(8,
                                            std::vector<std::uint64_t>(8, 0));
  for (auto& row : m) {
    for (auto& v : row) {
      if (rng.uniform() < 0.5) v = rng.below(32);
    }
  }
  ClusterConfig config;
  config.adc.bits = 12;
  CrossbarCluster cluster(m, 5, config);
  std::vector<std::uint64_t> x(8);
  for (auto& v : x) v = rng.below(16);
  std::vector<std::int64_t> y(8);
  EngineStats stats;
  cluster.mvm(x, 4, y, &stats, rng);
  for (int r = 0; r < 8; ++r) {
    std::int64_t ref = 0;
    for (int c = 0; c < 8; ++c) {
      ref += static_cast<std::int64_t>(m[r][c]) *
             static_cast<std::int64_t>(x[c]);
    }
    EXPECT_EQ(y[r], ref) << "row " << r;
  }
  EXPECT_GT(stats.crossbar_ops, 0);
  EXPECT_EQ(stats.adc_clips, 0);
}

TEST(CrossbarCluster, NarrowAdcClips) {
  // All-ones 16-wide row with a 2-bit ADC: the popcount 16 must clip at 3.
  std::vector<std::vector<std::uint64_t>> m(
      1, std::vector<std::uint64_t>(16, 1));
  ClusterConfig config;
  config.adc.bits = 2;
  CrossbarCluster cluster(m, 1, config);
  std::vector<std::uint64_t> x(16, 1);
  std::vector<std::int64_t> y(1);
  EngineStats stats;
  util::Rng rng(1);
  cluster.mvm(x, 1, y, &stats, rng);
  EXPECT_EQ(y[0], 3);
  EXPECT_EQ(stats.adc_clips, 1);
}

TEST(ProcessingEngine, MatchesRefloatQuantizedProduct) {
  // The bit-true engine on one block must reproduce quantize(A)*quantize(x)
  // exactly (wide ADC, no faults, no noise).
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(4, 4)).shifted(0.2);  // 16 = 2^b
  const core::RefloatMatrix rf(a, fmt);
  ASSERT_EQ(rf.nonzero_blocks(), 1u);
  const int block_base = rf.plan().base[0];

  std::vector<std::vector<double>> dense(16, std::vector<double>(16, 0.0));
  // Rebuild the raw block from the original matrix.
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (sparse::Index r = 0; r < a.rows(); ++r) {
    for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      dense[static_cast<std::size_t>(r)][static_cast<std::size_t>(
          col_idx[static_cast<std::size_t>(k)])] =
          values[static_cast<std::size_t>(k)];
    }
  }

  ProcessingEngine engine(dense, block_base, fmt);
  util::Rng rng(33);
  std::vector<double> x(16);
  for (double& v : x) v = rng.gaussian();

  std::vector<double> y_hw(16, 0.0);
  engine.apply(x, y_hw, nullptr, rng);

  std::vector<double> y_ref(16, 0.0);
  core::make_value_backend(rf)->sweep(x, 1, y_ref, {});
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(y_hw[static_cast<std::size_t>(i)],
                y_ref[static_cast<std::size_t>(i)], 1e-12)
        << "row " << i;
  }
}

TEST(HwSpmv, MatchesRefloatSpmvAcrossBlocks) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 12)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  ASSERT_GT(rf.nonzero_blocks(), 1u);
  HwSpmv spmv(rf, ClusterConfig{});
  util::Rng rng(44);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y_hw(x.size());
  spmv.apply(x, y_hw, rng);
  std::vector<double> y_ref(x.size());
  core::make_value_backend(rf)->sweep(x, 1, y_ref, {});
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_hw[i], y_ref[i], 1e-12);
  }
}

TEST(Faults, StuckAt0And1AreEquivalentInTheSignedEngine) {
  // bench_ablation_faults' observation, as a hard invariant: with identical
  // defect populations, losing a programmed bit in one quadrant equals
  // gaining it in the mirror quadrant.
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(4, 4)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);

  ClusterConfig sa0;
  sa0.faults.stuck_at_zero_rate = 5e-2;
  ClusterConfig sa1;
  sa1.faults.stuck_at_one_rate = 5e-2;

  HwSpmv spmv0(rf, sa0);
  HwSpmv spmv1(rf, sa1);
  util::Rng rng0(55);
  util::Rng rng1(55);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  util::Rng xr(66);
  for (double& v : x) v = xr.gaussian();
  std::vector<double> y0(x.size());
  std::vector<double> y1(x.size());
  spmv0.apply(x, y0, rng0);
  spmv1.apply(x, y1, rng1);
  bool any_fault_effect = false;
  std::vector<double> y_clean(x.size());
  util::Rng rngc(55);
  HwSpmv clean(rf, ClusterConfig{});
  clean.apply(x, y_clean, rngc);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y0[i], y1[i], 1e-12);
    if (std::abs(y0[i] - y_clean[i]) > 1e-12) any_fault_effect = true;
  }
  // The rate is high enough that the fault injection itself must be live.
  EXPECT_TRUE(any_fault_effect);
}

}  // namespace
}  // namespace refloat::hw
