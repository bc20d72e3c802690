// Table VI reproduction gate: the 12 suite matrices under CG and BiCGSTAB,
// on the exact double platform and on ReFloat, solved through the bench
// harness's run_solve in a fresh data directory (so every solve runs; no
// cache shard is trusted), must end with the recorded status and iteration
// count. tests/repro_table6.inc holds the table bench_table6 publishes
// (results/table6.csv) together with each run's terminal status; a failing
// cell prints its recorded form.
//
// Cost: about 22 s on a 4-core host, almost all of it the 48 cold solves
// (ctest label "repro"; `ctest -L repro` runs it alone).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/harness.h"

namespace refloat::bench {
namespace {

struct Table6Row {
  int ss_id;
  const char* matrix;
  const char* solver;
  const char* double_status;
  long double_iters;
  const char* refloat_status;
  long refloat_iters;
};

constexpr Table6Row kTable6[] = {
#include "tests/repro_table6.inc"
};

const Table6Row* find_row(const std::string& matrix,
                          const std::string& solver) {
  for (const Table6Row& row : kTable6) {
    if (matrix == row.matrix && solver == row.solver) return &row;
  }
  return nullptr;
}

// Points REFLOAT_DATA_DIR at an empty directory for the test's lifetime:
// the matrices are regenerated and every solve executes.
class ReproTable6 : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("refloat_repro_table6_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ::setenv("REFLOAT_DATA_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("REFLOAT_DATA_DIR");
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

TEST_F(ReproTable6, TableCoversEverySuiteMatrixAndSolver) {
  EXPECT_EQ(std::size(kTable6), gen::suite().size() * 2u);
}

TEST_F(ReproTable6, StatusAndIterationsMatchTheRecordedTable) {
  ResultCache cache(solves_cache_dir());
  for (const gen::SuiteSpec& spec : gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    for (const SolverKind solver : {SolverKind::kCg, SolverKind::kBicgstab}) {
      const SolveRecord dbl =
          run_solve(bundle, solver, Platform::kDouble, cache);
      const SolveRecord rf =
          run_solve(bundle, solver, Platform::kRefloat, cache);
      const Table6Row* row = find_row(spec.name, solver_name(solver));
      ASSERT_NE(row, nullptr) << spec.name << "/" << solver_name(solver);
      const bool same = row->ss_id == spec.ss_id &&
                        dbl.status == row->double_status &&
                        dbl.iterations == row->double_iters &&
                        rf.status == row->refloat_status &&
                        rf.iterations == row->refloat_iters;
      EXPECT_TRUE(same) << spec.name << "/" << solver_name(solver)
                        << " differs; recorded form:\n"
                        << "{" << spec.ss_id << ", \"" << spec.name
                        << "\", \"" << solver_name(solver) << "\", \""
                        << dbl.status << "\", " << dbl.iterations << ", \""
                        << rf.status << "\", " << rf.iterations << "},";
    }
  }
}

}  // namespace
}  // namespace refloat::bench
