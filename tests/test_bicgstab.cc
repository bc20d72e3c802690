#include "src/solvers/batched.h"

#include <gtest/gtest.h>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"
#include "src/solvers/reference_backend.h"

namespace refloat::solve {
namespace {

TEST(Bicgstab, ConvergesOnSpdLaplace) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(16, 16));
  const std::vector<double> b = make_rhs(a);
  ReferenceBackend op(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;
  const SolveResult result = bicgstab(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);

  SolveResult checked = result;
  attach_true_residual(a, b, checked);
  EXPECT_LE(checked.true_residual, 1e-7);
}

TEST(Bicgstab, FewerIterationsThanCgPerIterationCount) {
  // One BiCGSTAB iteration does two SpMVs, so its iteration count runs
  // roughly half of CG's on SPD systems (Table VI's pattern).
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(20, 20));
  const std::vector<double> b = make_rhs(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 4000;
  ReferenceBackend op_cg(a);
  ReferenceBackend op_bi(a);
  const SolveResult r_cg = cg(op_cg, b, opts);
  const SolveResult r_bi = bicgstab(op_bi, b, opts);
  ASSERT_EQ(r_cg.status, SolveStatus::kConverged);
  ASSERT_EQ(r_bi.status, SolveStatus::kConverged);
  EXPECT_LT(r_bi.iterations, r_cg.iterations);
}

TEST(Bicgstab, RefloatBackendConverges) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.05);
  const std::vector<double> b = make_rhs(a);
  const core::RefloatMatrix rf(a, core::default_format());
  const auto op = core::make_value_backend(rf, core::default_tile_count());
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 5000;
  opts.stall_window = 1000;
  const SolveResult result = bicgstab(*op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);
}

}  // namespace
}  // namespace refloat::solve
