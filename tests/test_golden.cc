// Golden solver trajectories: every platform of the evaluation (exact
// double, ReFloat, the Feinberg fixed-point baseline, Table I truncation,
// Fig. 10 RTN noise, the bit-true datapath with stuck-at-1 faults) under
// CG and BiCGSTAB on two small generated matrices, pinned bit for bit.
// Each row records the terminal status, the iteration count, the bit
// pattern of final_residual and an FNV-1a hash of the solution's bits, so
// a refactor that shifts any trajectory fails here instead of in a
// reader's memory of a bench table.
//
// The same rows pin the lockstep drivers: cg_multi / bicgstab_multi at
// k = 1, and column 0 of a k = 3 batch, must reproduce the serial solve.
//
// The table (tests/golden_trajectories.inc) pins the default Release build
// (REFLOAT_MARCH_NATIVE=OFF) and holds at any REFLOAT_THREADS. It does NOT
// hold under REFLOAT_MARCH_NATIVE=ON: there the compiler contracts the
// solver vector updates and the exact CSR SpMV into FMAs (only the sweep
// kernel TUs are -ffp-contract=off), which moves every row's residual bits
// and solution hash and even some iteration counts (wathen3x3 double CG
// takes 37 iterations instead of 39 on an AVX2 host). The pins are not
// loosened for that build; it is simply not the one they describe.
// A failing row prints its recorded form, so regenerating the table is a
// matter of running this binary and copying the printed rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/gen/wathen.h"
#include "src/hw/bit_true_backend.h"
#include "src/solvers/batched.h"
#include "src/solvers/bicgstab.h"
#include "src/solvers/cg.h"
#include "src/solvers/reference_backend.h"

namespace refloat {
namespace {

struct GoldenRow {
  const char* matrix;
  const char* platform;
  const char* solver;
  const char* status;
  long iterations;
  std::uint64_t residual_bits;
  std::uint64_t solution_hash;
};

constexpr GoldenRow kGolden[] = {
#include "tests/golden_trajectories.inc"
};

constexpr double kNoiseSigma = 0.02;
constexpr std::uint64_t kNoiseSeed = 0x601dULL;
constexpr double kStuckAtOneRate = 1e-3;

sparse::Csr golden_matrix(const std::string& name) {
  if (name == "lap10x8") {
    return gen::build_stencil(gen::laplace2d_5pt(10, 8)).shifted(0.15);
  }
  return gen::wathen(3, 3, /*seed=*/7);
}

core::Format golden_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

solve::SolveOptions golden_options() {
  solve::SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 300;
  opts.stall_window = 60;
  return opts;
}

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : v) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// One platform of one matrix: a fresh backend per run (stochastic views
// count their sweeps), driven serially or through the lockstep adapter.
class Platform {
 public:
  Platform(const std::string& matrix, const std::string& name)
      : name_(name), a_(golden_matrix(matrix)), rf_(a_, golden_format()) {
    config_.faults.stuck_at_one_rate = kStuckAtOneRate;
  }

  [[nodiscard]] const sparse::Csr& a() const { return a_; }

  core::SweepBackend& serial() {
    backend_ = make_backend();
    return *backend_;
  }

  std::unique_ptr<solve::MultiOperator> multi(std::size_t k) {
    backend_ = make_backend();
    return std::make_unique<solve::BackendMultiOperator>(*backend_, k,
                                                         kNoiseSeed);
  }

 private:
  std::unique_ptr<core::SweepBackend> make_backend() const {
    const int tiles = core::default_tile_count();
    if (name_ == "double") {
      return std::make_unique<solve::ReferenceBackend>(a_);
    }
    if (name_ == "refloat") return core::make_value_backend(rf_, tiles);
    if (name_ == "feinberg") {
      return std::make_unique<solve::ReferenceBackend>(
          a_, solve::ReferenceArithmetic::kFeinberg);
    }
    if (name_ == "truncated") {
      return std::make_unique<solve::ReferenceBackend>(
          a_, solve::TruncateSpec{.exp_bits = 8, .frac_bits = 12});
    }
    if (name_ == "noisy") {
      return core::make_noisy_backend(rf_, kNoiseSigma, kNoiseSeed, tiles);
    }
    return std::make_unique<hw::BitTrueBackend>(rf_, config_);
  }

  std::string name_;
  sparse::Csr a_;
  core::RefloatMatrix rf_;
  hw::ClusterConfig config_;
  std::unique_ptr<core::SweepBackend> backend_;
};

bool is_cg(const GoldenRow& row) { return std::string(row.solver) == "cg"; }

void expect_row(const GoldenRow& row, const solve::SolveResult& got,
                const char* run) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(got.final_residual);
  const std::uint64_t hash = fnv1a(got.solution);
  const bool same = std::string(row.status) == solve::status_name(got.status) &&
                    row.iterations == got.iterations &&
                    row.residual_bits == bits && row.solution_hash == hash;
  EXPECT_TRUE(same) << run << " run differs; recorded form:\n"
                    << "{\"" << row.matrix << "\", \"" << row.platform
                    << "\", \"" << row.solver << "\", \""
                    << solve::status_name(got.status) << "\", "
                    << got.iterations << ", 0x" << std::hex << bits
                    << "ULL, 0x" << hash << "ULL},";
}

TEST(GoldenTrajectories, TableCoversEveryPlatformAndSolver) {
  EXPECT_EQ(std::size(kGolden), 2u * 6u * 2u);
}

TEST(GoldenTrajectories, SerialSolvers) {
  for (const GoldenRow& row : kGolden) {
    Platform platform(row.matrix, row.platform);
    const std::vector<double> b = solve::make_rhs(platform.a());
    core::SweepBackend& op = platform.serial();
    const solve::SolveResult got =
        is_cg(row) ? solve::cg(op, b, golden_options())
                   : solve::bicgstab(op, b, golden_options());
    expect_row(row, got, "serial");
  }
}

TEST(GoldenTrajectories, LockstepK1) {
  for (const GoldenRow& row : kGolden) {
    Platform platform(row.matrix, row.platform);
    const std::vector<double> b = solve::make_rhs(platform.a());
    const auto op = platform.multi(1);
    const solve::BatchedSolveResult got =
        is_cg(row) ? solve::cg_multi(*op, b, 1, golden_options())
                   : solve::bicgstab_multi(*op, b, 1, golden_options());
    expect_row(row, got.columns[0], "k=1 lockstep");
  }
}

TEST(GoldenTrajectories, LockstepK3ColumnZero) {
  for (const GoldenRow& row : kGolden) {
    Platform platform(row.matrix, row.platform);
    const std::vector<double> b = solve::make_rhs_batch(platform.a(), 3);
    const auto op = platform.multi(3);
    const solve::BatchedSolveResult got =
        is_cg(row) ? solve::cg_multi(*op, b, 3, golden_options())
                   : solve::bicgstab_multi(*op, b, 3, golden_options());
    expect_row(row, got.columns[0], "k=3 lockstep column 0");
  }
}

}  // namespace
}  // namespace refloat
