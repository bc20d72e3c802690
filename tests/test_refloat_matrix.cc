#include "src/core/refloat_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/util/random.h"

namespace refloat::core {
namespace {

sparse::Csr test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.1);
}

TEST(RefloatMatrix, RoundTripErrorBoundedByFractionBits) {
  // With the default max-anchored window and e=3, the 5-point Laplacian's
  // per-block exponent spread (values in {-1, 0.1, 4.1}) fits the window,
  // so every entry obeys the 2^-(f+1) relative rounding bound.
  const sparse::Csr a = test_matrix();
  for (const int f : {3, 8}) {
    Format fmt = default_format();
    fmt.b = 4;
    fmt.f = f;
    const RefloatMatrix rf(a, fmt);
    EXPECT_EQ(rf.stats().overflowed, 0u);
    const double bound = std::ldexp(1.0, -(f + 1));
    EXPECT_LE(rf.stats().rel_error_fro, bound);
    // Entry-wise check through the dequantized matrix.
    const auto va = a.values();
    const auto vq = rf.quantized().values();
    ASSERT_EQ(va.size(), vq.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_LE(std::abs(va[i] - vq[i]),
                bound * std::abs(va[i]) * (1.0 + 1e-12));
    }
  }
  // More fraction bits -> strictly tighter conversion error.
  Format f3 = default_format();
  f3.b = 4;
  Format f8 = f3;
  f8.f = 8;
  EXPECT_LT(RefloatMatrix(a, f8).stats().rel_error_fro,
            RefloatMatrix(a, f3).stats().rel_error_fro);
}

TEST(RefloatMatrix, VectorQuantizationBoundedByFvBits) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  util::Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.gaussian();
  std::vector<double> out(x.size());
  rf.quantize_vector(x, out);
  // In-window entries obey the fv relative rounding bound; below-window
  // entries denormalize onto the segment's absolute floor grid (half a
  // floor step of absolute error at most).
  const int ev = rf.format().ev;
  const int fv = rf.format().fv;
  const double bound = std::ldexp(1.0, -(fv + 1));
  const std::size_t side = std::size_t{1} << rf.format().b;
  std::size_t in_window = 0;
  for (std::size_t begin = 0; begin < x.size(); begin += side) {
    const std::size_t end = std::min(begin + side, x.size());
    double seg_max = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      seg_max = std::max(seg_max, std::abs(x[i]));
    }
    const int base = std::ilogb(seg_max);
    const double floor_step = std::ldexp(1.0, base - (1 << ev) + 1 - fv);
    for (std::size_t i = begin; i < end; ++i) {
      const double err = std::abs(out[i] - x[i]);
      EXPECT_LE(err, std::max(bound * std::abs(x[i]), 0.5 * floor_step) *
                         (1.0 + 1e-12));
      if (err <= bound * std::abs(x[i]) * (1.0 + 1e-12)) ++in_window;
    }
  }
  EXPECT_GT(static_cast<double>(in_window), 0.9 * static_cast<double>(x.size()));
}

TEST(RefloatMatrix, SpmvRefloatMatchesQuantizedCsr) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  util::Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.gaussian();
  std::vector<double> xq(x.size());
  rf.quantize_vector(x, xq);
  std::vector<double> reference(x.size());
  rf.quantized().spmv(xq, reference);
  std::vector<double> y(x.size());
  core::make_value_backend(rf)->sweep(x, 1, y, {});
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], reference[i], 1e-12);
  }
}

TEST(RefloatMatrix, PlanCoversAllNonzeros) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  const SpmvPlan& plan = rf.plan();
  EXPECT_TRUE(plan.valid());
  EXPECT_EQ(plan.num_entries(), static_cast<std::size_t>(rf.quantized().nnz()));
  EXPECT_EQ(plan.num_blocks(), rf.nonzero_blocks());
  EXPECT_GT(rf.nonzero_blocks(), 0u);
}

TEST(RefloatMatrix, StorageModelBeatsCooBaseline) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  // Fig. 4 / Table VIII: default format costs ~0.17x of COO double.
  EXPECT_LT(rf.memory_overhead_vs_coo(), 0.25);
  EXPECT_GT(rf.memory_overhead_vs_coo(), 0.1);
  EXPECT_LT(rf.storage_bits(), rf.baseline_csr_bits());
}

TEST(RefloatMatrix, MeanBaseSaturatesWideBlocks) {
  // A block with a 2^12 exponent spread: the Eq. 5 mean base saturates the
  // large entries; the max anchor never overflows.
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 8; ++i) {
    triplets.push_back({i, i, std::ldexp(1.0, static_cast<int>(i) * -3)});
  }
  triplets.push_back({0, 7, 4096.0});
  const sparse::Csr a = sparse::Csr::from_triplets(8, 8, triplets);
  Format fmt = default_format();
  fmt.b = 3;
  const RefloatMatrix max_anchor(a, fmt);
  EXPECT_EQ(max_anchor.stats().overflowed, 0u);
  const RefloatMatrix mean_base(a, fmt, paper_literal_policy());
  EXPECT_GT(mean_base.stats().overflowed, 0u);
}

TEST(RefloatMatrix, ScalarFormatFp64RoundTripsExactly) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, format_fp64());
  EXPECT_EQ(rf.stats().rel_error_fro, 0.0);
  EXPECT_EQ(rf.nonzero_blocks(), 0u);
}

}  // namespace
}  // namespace refloat::core
