// Ablation: vector exponent-offset bits (ev) on rough right-hand sides.
//
// A reproduction finding (DESIGN.md §6): iterates of a plain solve are
// smooth and ev = 3 suffices — but *correction* systems (iterative
// refinement, restarted solvers) have spiky residual right-hand sides
// whose per-segment dynamic range exceeds the 2^ev window, truncating
// dominant components. The sweep solves A dx = r for a rough r with
// ev in {2..6} and reports the achievable true relative residual.
#include <cmath>
#include <cstdio>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"
#include "src/solvers/batched.h"
#include "src/sparse/vector_ops.h"
#include "src/util/random.h"
#include "src/util/table.h"

int main() {
  using namespace refloat;
  std::printf("=== Ablation: vector window bits ev on rough right-hand "
              "sides ===\n\n");

  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(48, 48));

  // Rough rhs: heavy-tailed spikes (the shape of refinement residuals).
  util::Rng rng(99);
  std::vector<double> r(a.rows());
  for (double& v : r) {
    v = rng.gaussian() * std::exp2(rng.uniform(-18.0, 0.0));
  }
  const double rn = sparse::norm2(r);
  for (double& v : r) v /= rn;

  util::Table table({"ev", "status", "iters", "recursive res",
                     "true rel res"});
  std::vector<double> ax(a.rows()), rt(a.rows());
  for (int ev = 2; ev <= 6; ++ev) {
    const core::Format fmt{.b = 7, .e = 3, .f = 8, .ev = ev, .fv = 12};
    const core::RefloatMatrix rf(a, fmt);
    const auto op = core::make_value_backend(rf, core::default_tile_count());
    solve::SolveOptions opts;
    opts.tolerance = 1e-4;
    opts.max_iterations = 3000;
    opts.stall_window = 800;
    const solve::SolveResult res = solve::cg(*op, r, opts);

    a.spmv(res.solution, ax);
    sparse::sub(r, ax, rt);
    table.add_row({std::to_string(ev), solve::status_name(res.status),
                   std::to_string(res.iterations),
                   util::fmt_g(res.final_residual, 3),
                   util::fmt_g(sparse::norm2(rt), 3)});
  }
  table.print();
  std::printf("\nAt ev <= 3 the mean/max-anchored segment bases cannot span "
              "the rough rhs: the recursive residual\nconverges while the "
              "true residual detaches (fictional convergence). ev = 5 "
              "restores agreement —\nthe setting the refinement example "
              "uses.\n");
  return 0;
}
