#include "src/solvers/bicgstab.h"

#include <cmath>

#include "src/solvers/monitor.h"
#include "src/sparse/vector_ops.h"

namespace refloat::solve {

SolveResult bicgstab(core::SweepBackend& op, std::span<const double> b,
                     const SolveOptions& options) {
  const std::size_t n = b.size();
  SolveResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> p(n, 0.0);
  std::vector<double> v(n, 0.0);
  std::vector<double> s(n);
  std::vector<double> t(n);

  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  double rnorm = sparse::norm2(r);
  detail::Monitor monitor(options);
  long k = 0;
  if (options.record_trace) result.trace.push_back(rnorm);

  // Restart bookkeeping: on inexact (quantized) operators the recursive
  // residual can detach from b - A x and blow up; recomputing it and
  // resetting the shadow vector is the standard rescue.
  std::vector<double> r_shadow(r);
  double best_since_restart = rnorm;
  int restarts = 0;
  constexpr int kMaxRestarts = 40;
  constexpr double kRestartGrowth = 100.0;

  while (true) {
    if (const auto status = monitor.check(k, rnorm)) {
      result.status = *status;
      break;
    }
    ++k;
    if (rnorm > kRestartGrowth * best_since_restart &&
        restarts < kMaxRestarts) {
      ++restarts;
      op.sweep(result.solution, 1, t, {});
      sparse::sub(b, t, r);
      r_shadow = r;
      std::fill(p.begin(), p.end(), 0.0);
      std::fill(v.begin(), v.end(), 0.0);
      rho = alpha = omega = 1.0;
      rnorm = sparse::norm2(r);
      best_since_restart = rnorm;
    }
    const double rho_next = sparse::dot(r_shadow, r);
    if (!std::isfinite(rho_next) || rho_next == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    const double beta = (rho_next / rho) * (alpha / omega);
    // p = r + beta * (p - omega * v)
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    op.sweep(p, 1, v, {});
    const double rhat_v = sparse::dot(r_shadow, v);
    if (!std::isfinite(rhat_v) || rhat_v == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    alpha = rho_next / rhat_v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    const double snorm = sparse::norm2(s);
    if (snorm <= options.tolerance) {
      sparse::axpy(alpha, p, result.solution);
      rnorm = snorm;
      if (options.record_trace) result.trace.push_back(rnorm);
      result.status = SolveStatus::kConverged;
      break;
    }
    op.sweep(s, 1, t, {});
    const double t_t = sparse::dot(t, t);
    if (!std::isfinite(t_t) || t_t == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    omega = sparse::dot(t, s) / t_t;
    if (!std::isfinite(omega) || omega == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      result.solution[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
    }
    rho = rho_next;
    rnorm = sparse::norm2(r);
    if (rnorm < best_since_restart) best_since_restart = rnorm;
    if (options.record_trace) result.trace.push_back(rnorm);
  }

  result.iterations = detail::reported_iterations(result.status, k);
  result.final_residual = rnorm;
  return result;
}

}  // namespace refloat::solve
