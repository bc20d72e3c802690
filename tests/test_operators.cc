// The evaluation's platform operators as SweepBackends: the plain-CSR
// reference views (exact double, Feinberg, Table I truncation) and the
// Fig. 10 noisy view.
#include "src/solvers/reference_backend.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"

namespace refloat::solve {
namespace {

TEST(ReferenceBackend, TruncatedFp64SpecIsIdentity) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  ReferenceBackend op(a, TruncateSpec{.exp_bits = 11, .frac_bits = 52});
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  x[5] = 0.7231;
  std::vector<double> y_t(x.size());
  std::vector<double> y_ref(x.size());
  op.sweep(x, 1, y_t, {});
  a.spmv(x, y_ref);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y_t[i], y_ref[i]);
  }
}

TEST(ReferenceBackend, TruncatedFractionPerturbs) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  ReferenceBackend op(a, TruncateSpec{.exp_bits = 11, .frac_bits = 8});
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0 / 3.0);
  std::vector<double> y_t(x.size());
  std::vector<double> y_ref(x.size());
  op.sweep(x, 1, y_t, {});
  a.spmv(x, y_ref);
  double max_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_err = std::max(max_err, std::abs(y_t[i] - y_ref[i]));
  }
  EXPECT_GT(max_err, 0.0);
  EXPECT_LT(max_err, 1e-1);
}

TEST(ReferenceBackend, FeinbergFlushesOutOfWindowEntries) {
  // Global dynamic range of 2^80 >> the 2^6-position window: the tiny
  // entries must flush; a narrow-range matrix keeps everything.
  std::vector<sparse::Triplet> wide = {{0, 0, 1.0},
                                       {1, 1, std::ldexp(1.0, -80)},
                                       {2, 2, 2.0}};
  const sparse::Csr wide_csr = sparse::Csr::from_triplets(3, 3, wide);
  ReferenceBackend flushing(wide_csr, ReferenceArithmetic::kFeinberg);
  EXPECT_EQ(flushing.flushed(), 1u);

  const sparse::Csr narrow = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  ReferenceBackend keeping(narrow, ReferenceArithmetic::kFeinberg);
  EXPECT_EQ(keeping.flushed(), 0u);
  // And on narrow-range matrices it behaves like double (52-bit fractions).
  std::vector<double> x(static_cast<std::size_t>(narrow.rows()), 0.5);
  std::vector<double> y_f(x.size());
  std::vector<double> y_ref(x.size());
  keeping.sweep(x, 1, y_f, {});
  narrow.spmv(x, y_ref);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_f[i], y_ref[i], 1e-12);
  }
}

TEST(ReferenceBackend, KColumnSweepMatchesSoloSweeps) {
  // Truncation keeps per-sweep scratch: a k-RHS sweep must still equal k
  // solo sweeps column by column.
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(6, 6));
  ReferenceBackend op(a, TruncateSpec{.exp_bits = 8, .frac_bits = 10});
  const std::size_t n = static_cast<std::size_t>(a.rows());
  std::vector<double> x(3 * n);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 / (1.0 + i);
  std::vector<double> batched(3 * n);
  op.sweep(x, 3, batched, {});
  std::vector<double> solo(n);
  for (std::size_t j = 0; j < 3; ++j) {
    op.sweep(std::span<const double>(x).subspan(j * n, n), 1, solo, {});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[j * n + i], solo[i]) << "column " << j;
    }
  }
}

TEST(ReferenceBackend, LabelsDimsAndUnservedKind) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(6, 6));
  ReferenceBackend d(a);
  ReferenceBackend f(a, ReferenceArithmetic::kFeinberg);
  ReferenceBackend t(a, TruncateSpec{});
  EXPECT_STREQ(d.label(), "double");
  EXPECT_STREQ(f.label(), "feinberg");
  EXPECT_STREQ(t.label(), "truncated");
  const core::SweepBackend* ops[] = {&d, &f, &t};
  for (const core::SweepBackend* op : ops) {
    EXPECT_EQ(op->rows(), 36u);
    EXPECT_EQ(op->cols(), 36u);
    EXPECT_EQ(op->kind(), core::BackendKind::kReference);
  }
  // The serve protocol never accepts the reference views.
  core::BackendKind parsed = core::BackendKind::kValue;
  EXPECT_FALSE(core::parse_backend_kind(
      core::backend_kind_name(core::BackendKind::kReference), &parsed));
  EXPECT_EQ(parsed, core::BackendKind::kValue);
}

TEST(NoisyBackend, DeterministicPerSeedAndNoisy) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 12)).shifted(0.1);
  const core::RefloatMatrix rf(a, core::default_format());
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y1(x.size());
  std::vector<double> y2(x.size());
  std::vector<double> y_clean(x.size());

  const auto op1 = core::make_noisy_backend(rf, 0.05, 99);
  const auto op2 = core::make_noisy_backend(rf, 0.05, 99);
  op1->sweep(x, 1, y1, {});
  op2->sweep(x, 1, y2, {});
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y1[i], y2[i]);  // same seed, same draw sequence
  }

  const auto clean = core::make_value_backend(rf);
  clean->sweep(x, 1, y_clean, {});
  double diff = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(y1[i] - y_clean[i]));
  }
  EXPECT_GT(diff, 0.0);
}

}  // namespace
}  // namespace refloat::solve
