// The lockstep batching contract: cg_multi / bicgstab_multi are
// orchestration only — every column's trajectory (status, iteration count,
// residuals, trace, solution) is bit-identical to solving that column
// alone (solve::cg / solve::bicgstab, a k = 1 run), even when columns
// terminate at different iterations, and the batch issues far fewer
// operator applications than k sequential solves.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/gen/grid.h"
#include "src/solvers/batched.h"
#include "src/solvers/reference_backend.h"
#include "src/util/thread_pool.h"
#include "tests/golden_hash.h"

namespace refloat::solve {
namespace {

sparse::Csr test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

void expect_columns_match_serial(const BatchedSolveResult& batch,
                                 const std::vector<SolveResult>& serial) {
  ASSERT_EQ(batch.columns.size(), serial.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    const SolveResult& got = batch.columns[c];
    const SolveResult& want = serial[c];
    EXPECT_EQ(got.status, want.status) << "column " << c;
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution.size(), want.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i) {
      ASSERT_EQ(got.solution[i], want.solution[i])
          << "column " << c << " row " << i;
    }
    ASSERT_EQ(got.trace.size(), want.trace.size()) << "column " << c;
    for (std::size_t i = 0; i < want.trace.size(); ++i) {
      ASSERT_EQ(got.trace[i], want.trace[i])
          << "column " << c << " trace " << i;
    }
  }
}

// One column's recorded trajectory: terminal status, iteration count, the
// bit pattern of final_residual and an FNV-1a hash of the solution's bits,
// as tests/golden_trajectories.inc records them. The rows below were
// recorded from an earlier, separate single-RHS implementation of CG and
// BiCGSTAB, so they pin the lockstep drivers against a reference that
// shares none of their code. A failing column prints its recorded form.
struct GoldenColumn {
  const char* status;
  long iterations;
  std::uint64_t residual_bits;
  std::uint64_t solution_hash;
};

constexpr GoldenColumn kCgGolden[] = {
    {"converged", 57, 0x3e3fb4e25f3ab8f4ULL, 0x1bfe5efaabb1a498ULL},
    {"converged", 58, 0x3e4064091a7c7f44ULL, 0xbf4068f462de28b4ULL},
    {"converged", 70, 0x3e36f4645ed9ae74ULL, 0x7e21da09614a20b8ULL},
    {"converged", 58, 0x3e3ec103c940ff46ULL, 0x8279c4a06fba4133ULL},
};

constexpr GoldenColumn kBicgstabGolden[] = {
    {"converged", 50, 0x3e43560c584cf749ULL, 0x8203ae62545068c8ULL},
    {"converged", 61, 0x3e121527a235e8edULL, 0x5700cc26b08aa1e4ULL},
    {"converged", 43, 0x3e411b6dbf0cf94eULL, 0xa212a99314dc72b6ULL},
};

constexpr GoldenColumn kReferenceGolden[] = {
    {"max-iterations", 7, 0x3fb140be9e04643cULL, 0xff3f11aba67fcad3ULL},
    {"max-iterations", 7, 0x3f954986bd950563ULL, 0x80057a3b4c975b54ULL},
};

void expect_columns_match_golden(const BatchedSolveResult& batch,
                                 std::span<const GoldenColumn> golden) {
  ASSERT_EQ(batch.columns.size(), golden.size());
  for (std::size_t c = 0; c < golden.size(); ++c) {
    const SolveResult& got = batch.columns[c];
    const GoldenColumn& want = golden[c];
    const auto bits = std::bit_cast<std::uint64_t>(got.final_residual);
    const std::uint64_t hash = golden::fnv1a(got.solution);
    const bool same = std::string(want.status) == status_name(got.status) &&
                      want.iterations == got.iterations &&
                      want.residual_bits == bits &&
                      want.solution_hash == hash;
    EXPECT_TRUE(same) << "column " << c << " differs; recorded form:\n"
                      << "{\"" << status_name(got.status) << "\", "
                      << got.iterations << ", 0x" << std::hex << bits
                      << "ULL, 0x" << hash << "ULL},";
  }
}

TEST(BatchedSolve, CgMultiBitIdenticalToSequentialCg) {
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;
  std::vector<double> b = make_rhs_batch(a, k);
  // Desynchronize convergence: columns reach the absolute tolerance at
  // different iterations when their right-hand sides differ in norm.
  for (std::size_t i = 0; i < n; ++i) b[2 * n + i] *= 40.0;

  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;

  const auto backend = core::make_value_backend(rf);
  std::vector<SolveResult> serial;
  for (std::size_t c = 0; c < k; ++c) {
    serial.push_back(
        cg(*backend, std::span<const double>(b).subspan(c * n, n), opts));
  }
  // Columns must genuinely differ, or the lockstep dropout path is untested.
  EXPECT_NE(serial[0].iterations, serial[2].iterations);

  BackendMultiOperator multi(*backend, k);
  const BatchedSolveResult batch = cg_multi(multi, b, k, opts);
  expect_columns_match_serial(batch, serial);
  expect_columns_match_golden(batch, kCgGolden);

  // The whole point: far fewer operator invocations than k solves' applies,
  // while the per-column application count is conserved.
  long serial_applies = 0;
  for (const SolveResult& r : serial) serial_applies += r.iterations;
  EXPECT_EQ(batch.column_applies, serial_applies);
  EXPECT_LT(batch.batched_applies, batch.column_applies);
}

TEST(BatchedSolve, BicgstabMultiBitIdenticalToSequentialBicgstab) {
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 3;
  std::vector<double> b = make_rhs_batch(a, k);
  for (std::size_t i = 0; i < n; ++i) b[n + i] *= 25.0;

  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;

  const auto backend = core::make_value_backend(rf);
  std::vector<SolveResult> serial;
  for (std::size_t c = 0; c < k; ++c) {
    serial.push_back(bicgstab(
        *backend, std::span<const double>(b).subspan(c * n, n), opts));
  }

  BackendMultiOperator multi(*backend, k);
  const BatchedSolveResult batch = bicgstab_multi(multi, b, k, opts);
  expect_columns_match_serial(batch, serial);
  expect_columns_match_golden(batch, kBicgstabGolden);
  EXPECT_LT(batch.batched_applies, batch.column_applies);
}

TEST(BatchedSolve, ReferenceBackendMatchesTooAndHandlesMaxIterations) {
  // The plain-CSR reference backend (per-column applies) must satisfy the
  // same contract — here on the exact double platform with a budget small
  // enough that every column stops at max-iterations.
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a = test_matrix();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  const std::vector<double> b = make_rhs_batch(a, k);

  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 7;

  ReferenceBackend op(a);
  std::vector<SolveResult> serial;
  for (std::size_t c = 0; c < k; ++c) {
    serial.push_back(
        cg(op, std::span<const double>(b).subspan(c * n, n), opts));
  }
  ASSERT_EQ(serial[0].status, SolveStatus::kMaxIterations);

  BackendMultiOperator multi(op, k);
  const BatchedSolveResult batch = cg_multi(multi, b, k, opts);
  expect_columns_match_serial(batch, serial);
  expect_columns_match_golden(batch, kReferenceGolden);
  EXPECT_FALSE(batch.all_converged());
}

TEST(BatchedSolve, MakeRhsBatchColumnsAreDistinctAndColumnZeroIsMakeRhs) {
  const sparse::Csr a = test_matrix();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = make_rhs_batch(a, 3);
  ASSERT_EQ(b.size(), 3 * n);
  const std::vector<double> b0 = make_rhs(a);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(b[i], b0[i]);
  bool differs = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (b[n + i] != b[2 * n + i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace refloat::solve
