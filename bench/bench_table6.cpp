// Table VI: absolute iteration counts to convergence, double vs refloat,
// for CG and BiCGSTAB on the 12 matrices — plus the Table VII bit-width
// configuration echo.
//
// Paper anchors (Table VI): refloat costs extra iterations on most
// matrices under CG (e.g. crystm03 80 -> 95, wathen120 294 -> 401) while
// under BiCGSTAB several matrices need *fewer* iterations in refloat
// (355, 2257, 2259, 845 have negative deltas); gridgena converges at the
// first residual check (1 iteration) everywhere.
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "src/util/table.h"

namespace refloat::bench {
namespace {

// Table VI, published iteration counts (double, refloat) per solver.
struct PaperIters {
  int ss_id;
  long cg_double, cg_refloat;
  long bi_double, bi_refloat;
};

constexpr PaperIters kPaper[] = {
    {353, 68, 85, 49, 51},     {1313, 52, 55, 34, 69},
    {354, 81, 95, 58, 79},     {2261, 11, 11, 7, 7},
    {1288, 262, 305, 195, 205}, {1311, 1, 1, 1, 1},
    {1289, 294, 401, 211, 317}, {355, 80, 95, 59, 52},
    {2257, 55, 56, 43, 36},    {1848, 162, 214, 118, 145},
    {2259, 57, 58, 45, 36},    {845, 53, 54, 41, 35},
};

const PaperIters& paper_of(int ss_id) {
  for (const auto& p : kPaper) {
    if (p.ss_id == ss_id) return p;
  }
  return kPaper[0];
}

std::string delta(long refloat_iters, long double_iters) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%+ld", refloat_iters - double_iters);
  return buf;
}

}  // namespace
}  // namespace refloat::bench

int main() {
  using namespace refloat::bench;
  using refloat::util::Table;
  std::printf("=== Table VII: bit widths in refloat ===\n");
  std::printf("  default: e=3 f=3 ev=3 fv=8 (CG and BiCGSTAB)\n");
  std::printf("  matrices 1288 (wathen100) and 1848 (Dubcova2): fv=16\n\n");

  std::printf("=== Table VI: absolute iterations to convergence ===\n");
  ResultCache cache(solves_cache_dir());
  refloat::util::CsvWriter csv(results_dir() + "/table6.csv");
  csv.row({"id", "matrix", "solver", "double_iters", "refloat_iters",
           "paper_double", "paper_refloat"});

  Table table({"ID", "matrix", "CG dbl", "CG rf", "+/-", "(paper)",
               "Bi dbl", "Bi rf", "+/-", "(paper)"});
  for (const refloat::gen::SuiteSpec& spec : refloat::gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    const SolveRecord cd =
        run_solve(bundle, SolverKind::kCg, Platform::kDouble, cache);
    const SolveRecord cr =
        run_solve(bundle, SolverKind::kCg, Platform::kRefloat, cache);
    const SolveRecord bd =
        run_solve(bundle, SolverKind::kBicgstab, Platform::kDouble, cache);
    const SolveRecord br =
        run_solve(bundle, SolverKind::kBicgstab, Platform::kRefloat, cache);
    const auto& paper = paper_of(spec.ss_id);

    char paper_cg[48];
    std::snprintf(paper_cg, sizeof(paper_cg), "%ld->%ld", paper.cg_double,
                  paper.cg_refloat);
    char paper_bi[48];
    std::snprintf(paper_bi, sizeof(paper_bi), "%ld->%ld", paper.bi_double,
                  paper.bi_refloat);
    table.add_row({std::to_string(spec.ss_id), spec.name,
                   std::to_string(cd.iterations),
                   cr.converged() ? std::to_string(cr.iterations) : "NC",
                   delta(cr.iterations, cd.iterations), paper_cg,
                   std::to_string(bd.iterations),
                   br.converged() ? std::to_string(br.iterations) : "NC",
                   delta(br.iterations, bd.iterations), paper_bi});
    csv.row({std::to_string(spec.ss_id), spec.name, "CG",
             std::to_string(cd.iterations), std::to_string(cr.iterations),
             std::to_string(paper.cg_double),
             std::to_string(paper.cg_refloat)});
    csv.row({std::to_string(spec.ss_id), spec.name, "BiCGSTAB",
             std::to_string(bd.iterations), std::to_string(br.iterations),
             std::to_string(paper.bi_double),
             std::to_string(paper.bi_refloat)});
  }
  table.print();
  std::printf("\nSeries written to results/table6.csv\n");
  return 0;
}
