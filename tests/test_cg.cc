#include "src/solvers/batched.h"

#include <gtest/gtest.h>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"
#include "src/solvers/reference_backend.h"
#include "src/sparse/vector_ops.h"

namespace refloat::solve {
namespace {

TEST(Cg, ConvergesOnSpdLaplaceToTau) {
  // The ISSUE's acceptance case: CG on a small SPD Laplace matrix to 1e-8.
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(16, 16));
  const std::vector<double> b = make_rhs(a);
  ReferenceBackend op(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;
  const SolveResult result = cg(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);
  EXPECT_LE(result.final_residual, 1e-8);
  EXPECT_GT(result.iterations, 1);

  // The recursive residual must agree with the true residual here.
  SolveResult checked = result;
  attach_true_residual(a, b, checked);
  EXPECT_NEAR(checked.true_residual, result.final_residual, 1e-9);
}

TEST(Cg, TraceIsMonotoneAtTheTail) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(12, 12));
  const std::vector<double> b = make_rhs(a);
  ReferenceBackend op(a);
  SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 2000;
  const SolveResult result = cg(op, b, opts);
  ASSERT_GE(result.trace.size(), 2u);
  EXPECT_DOUBLE_EQ(result.trace.front(), sparse::norm2(b));
  EXPECT_LT(result.trace.back(), result.trace.front());
}

TEST(Cg, TinyRhsConvergesAtFirstResidualCheck) {
  // The gridgena behaviour: ||b|| below tau -> 1 iteration everywhere.
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  const std::vector<double> b = make_rhs(a, 5e-9);
  ReferenceBackend op(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  const SolveResult result = cg(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);
  EXPECT_EQ(result.iterations, 1);
}

TEST(Cg, RefloatBackendConvergesWithExtraIterations) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.05);
  const std::vector<double> b = make_rhs(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 5000;
  opts.stall_window = 800;

  ReferenceBackend exact(a);
  const SolveResult exact_result = cg(exact, b, opts);
  ASSERT_EQ(exact_result.status, SolveStatus::kConverged);

  const core::RefloatMatrix rf(a, core::default_format());
  const auto quantized =
      core::make_value_backend(rf, core::default_tile_count());
  const SolveResult rf_result = cg(*quantized, b, opts);
  EXPECT_EQ(rf_result.status, SolveStatus::kConverged);
  // Table VI shape: refloat converges, usually paying some extra iterations.
  EXPECT_GE(rf_result.iterations, exact_result.iterations);
  EXPECT_LE(rf_result.iterations, 4 * exact_result.iterations);
}

TEST(Cg, StallDetectionFires) {
  // An operator that injects a fixed error floor: the residual cannot pass
  // it, so the stall window must trigger.
  class FloorOperator final : public core::SweepBackend {
   public:
    explicit FloorOperator(const sparse::Csr& a) : a_(a) {}
    [[nodiscard]] std::size_t rows() const override {
      return static_cast<std::size_t>(a_.rows());
    }
    [[nodiscard]] std::size_t cols() const override { return rows(); }
    [[nodiscard]] core::BackendKind kind() const override {
      return core::BackendKind::kReference;
    }
    [[nodiscard]] const char* label() const override { return "floor"; }
    void sweep(std::span<const double> x, std::size_t k, std::span<double> y,
               const core::SweepContext& ctx) override {
      (void)k;
      (void)ctx;
      a_.spmv(x, y);
      y[0] += 1e-4;  // constant inconsistency
    }

   private:
    const sparse::Csr& a_;
  };

  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  const std::vector<double> b = make_rhs(a);
  FloorOperator op(a);
  SolveOptions opts;
  opts.tolerance = 1e-12;
  opts.max_iterations = 10000;
  opts.stall_window = 50;
  const SolveResult result = cg(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kStalled);
  EXPECT_LT(result.iterations, opts.max_iterations);
}

}  // namespace
}  // namespace refloat::solve
