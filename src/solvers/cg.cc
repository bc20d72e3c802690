#include "src/solvers/cg.h"

#include <cmath>

#include "src/solvers/monitor.h"
#include "src/sparse/vector_ops.h"

namespace refloat::solve {

SolveResult cg(core::SweepBackend& op, std::span<const double> b,
               const SolveOptions& options) {
  const std::size_t n = b.size();
  SolveResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> p(r);
  std::vector<double> ap(n);

  double rho = sparse::dot(r, r);
  double rnorm = std::sqrt(rho);
  detail::Monitor monitor(options);
  long k = 0;
  if (options.record_trace) result.trace.push_back(rnorm);

  while (true) {
    if (const auto status = monitor.check(k, rnorm)) {
      result.status = *status;
      break;
    }
    ++k;
    op.sweep(p, 1, ap, {});
    const double p_ap = sparse::dot(p, ap);
    if (!std::isfinite(p_ap) || p_ap == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    const double alpha = rho / p_ap;
    sparse::axpy(alpha, p, result.solution);
    sparse::axpy(-alpha, ap, r);
    const double rho_next = sparse::dot(r, r);
    rnorm = std::sqrt(rho_next);
    if (options.record_trace) result.trace.push_back(rnorm);
    sparse::xpby(r, rho_next / rho, p);
    rho = rho_next;
  }

  result.iterations = detail::reported_iterations(result.status, k);
  result.final_residual = rnorm;
  return result;
}

}  // namespace refloat::solve
