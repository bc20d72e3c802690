// Table I: iterations to convergence on crystm03 (CG, tau = 1e-8) under
// global FP truncation — fraction bits swept at full exponent range, and
// exponent bits swept at full fraction.
//
// Paper anchors: double converges in 80 iterations; fraction truncation is
// benign down to ~21 bits (80 -> 107) and non-convergent at 20; exponent
// truncation is catastrophic: 7 bits converges (at +256x iterations in the
// paper's run), 6 bits and below do not converge. The cliff *positions*
// (frac ~20-21, exp 6/7) are the reproduced shape; see EXPERIMENTS.md for
// the measured-vs-paper discussion.
#include <cstdio>

#include "bench/harness.h"
#include "src/solvers/batched.h"
#include "src/solvers/reference_backend.h"
#include "src/sparse/vector_ops.h"
#include "src/util/table.h"

namespace refloat::bench {
namespace {

struct PaperRow {
  int bits;
  const char* iters;
};

long run_truncated(const MatrixBundle& bundle, int exp_bits, int frac_bits,
                   std::string& status) {
  solve::ReferenceBackend op(bundle.a,
                             solve::TruncateSpec{.exp_bits = exp_bits,
                                                 .frac_bits = frac_bits});
  solve::SolveOptions opts = evaluation_options();
  opts.max_iterations = 60000;  // the paper's 7-bit case ran 20620
  const solve::SolveResult res = solve::cg(op, bundle.b, opts);
  status = solve::status_name(res.status);
  return res.iterations;
}

// CG through the truncated operator with convergence declared on the
// *true* residual ||b - A_exact x||. The recursive residual of a fixed
// perturbed operator always converges, so the fraction-truncation cliff
// Table I reports is only visible against the exact matrix: the true
// residual stalls at the quantization floor, and once that floor sits
// above tau the run never converges (see EXPERIMENTS.md).
long run_truncated_true(const MatrixBundle& bundle, int exp_bits,
                        int frac_bits, std::string& status) {
  solve::ReferenceBackend op(bundle.a,
                             solve::TruncateSpec{.exp_bits = exp_bits,
                                                 .frac_bits = frac_bits});
  const auto n = bundle.b.size();
  std::vector<double> x(n, 0.0), r(bundle.b), p(r), s(n), ax(n), rt(n);
  const double tol = 1e-8;
  double best = 2.0;
  long best_iter = 0;
  double rho = sparse::dot(r, r);
  for (long k = 1; k <= 60000; ++k) {
    op.sweep(p, 1, s, {});
    const double p_ap = sparse::dot(p, s);
    if (!std::isfinite(p_ap) || p_ap == 0.0) {
      status = "breakdown";
      return k;
    }
    const double alpha = rho / p_ap;
    sparse::axpy(alpha, p, x);
    sparse::axpy(-alpha, s, r);
    // True-residual check against the exact matrix.
    bundle.a.spmv(x, ax);
    sparse::sub(bundle.b, ax, rt);
    const double true_norm = sparse::norm2(rt);
    if (true_norm <= tol) {
      status = "converged";
      return k;
    }
    if (!std::isfinite(true_norm) || true_norm > 1e10) {
      status = "diverged";
      return k;
    }
    if (true_norm < best * (1.0 - 1e-3)) {
      best = true_norm;
      best_iter = k;
    } else if (k - best_iter >= 1500) {
      status = "stalled";
      return k;
    }
    const double rho_next = sparse::dot(r, r);
    sparse::xpby(r, rho_next / rho, p);
    rho = rho_next;
  }
  status = "max-iterations";
  return 60000;
}

}  // namespace
}  // namespace refloat::bench

int main() {
  using namespace refloat::bench;
  using refloat::util::Table;
  std::printf("=== Table I: crystm03 iterations under exponent/fraction "
              "truncation (CG, tau=1e-8) ===\n\n");

  const refloat::gen::SuiteSpec* spec = refloat::gen::find_spec(355);
  const MatrixBundle bundle = load_bundle(*spec);
  refloat::util::CsvWriter csv(results_dir() + "/table1.csv");
  csv.row({"exp_bits", "frac_bits", "iters_recursive", "status_recursive", "iters_true", "status_true", "paper"});

  // Paper's published cells for side-by-side comparison.
  const PaperRow paper_frac[] = {{52, "80"},      {30, "82(+2)"},
                                 {29, "82(+2)"},  {28, "83(+3)"},
                                 {27, "83(+3)"},  {26, "84(+4)"},
                                 {25, "90(+10)"}, {24, "93(+13)"},
                                 {23, "93(+13)"}, {22, "95(+15)"},
                                 {21, "107(+27)"}, {20, "NC"}};
  const PaperRow paper_exp[] = {
      {10, "80"}, {9, "80"}, {8, "80"}, {7, "20620(+256x)"}, {6, "NC"}};

  std::printf("exp = 11 (full), fraction swept:\n");
  Table frac_table({"frac", "recursive-res", "true-res", "paper"});
  for (const PaperRow& row : paper_frac) {
    std::string status_rec, status_true;
    const long iters_rec = run_truncated(bundle, 11, row.bits, status_rec);
    const long iters_true =
        run_truncated_true(bundle, 11, row.bits, status_true);
    frac_table.add_row(
        {std::to_string(row.bits),
         status_rec == "converged" ? std::to_string(iters_rec) : "NC",
         status_true == "converged" ? std::to_string(iters_true) : "NC",
         row.iters});
    csv.row({"11", std::to_string(row.bits), std::to_string(iters_rec),
             status_rec, std::to_string(iters_true), status_true, row.iters});
  }
  frac_table.print();
  std::printf("  (recursive-res: solver's own residual recursion; true-res: "
              "checked against the exact matrix.\n   The paper's fraction "
              "cliff is a true-residual phenomenon — the quantization floor "
              "crosses tau.)\n");

  std::printf("\nfrac = 52 (full), exponent swept:\n");
  Table exp_table({"exp", "recursive-res", "true-res", "paper"});
  for (const PaperRow& row : paper_exp) {
    std::string status_rec, status_true;
    const long iters_rec = run_truncated(bundle, row.bits, 52, status_rec);
    const long iters_true =
        run_truncated_true(bundle, row.bits, 52, status_true);
    exp_table.add_row(
        {std::to_string(row.bits),
         status_rec == "converged" ? std::to_string(iters_rec) : "NC",
         status_true == "converged" ? std::to_string(iters_true) : "NC",
         row.iters});
    csv.row({std::to_string(row.bits), "52", std::to_string(iters_rec),
             status_rec, std::to_string(iters_true), status_true, row.iters});
  }
  exp_table.print();
  std::printf("\nSeries written to results/table1.csv\n");
  return 0;
}
