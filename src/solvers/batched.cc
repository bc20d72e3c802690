#include "src/solvers/batched.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/solvers/monitor.h"
#include "src/sparse/vector_ops.h"
#include "src/util/random.h"

namespace refloat::solve {

BackendMultiOperator::BackendMultiOperator(core::SweepBackend& backend,
                                           std::size_t k, std::uint64_t seed)
    : backend_(backend), counters_(k, 0) {
  seeds_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    seeds_[j] =
        j == 0 ? seed : util::stream_seed(seed, j, core::kColumnForkSalt);
  }
}

BackendMultiOperator::BackendMultiOperator(core::SweepBackend& backend,
                                           std::vector<std::uint64_t> seeds)
    : backend_(backend),
      seeds_(std::move(seeds)),
      counters_(seeds_.size(), 0) {}

void BackendMultiOperator::apply_multi(std::span<const double> x,
                                       std::size_t k, std::span<double> y) {
  identity_.resize(k);
  for (std::size_t j = 0; j < k; ++j) identity_[j] = j;
  apply_multi_cols(x, k, y, identity_);
}

void BackendMultiOperator::apply_multi_cols(
    std::span<const double> x, std::size_t k, std::span<double> y,
    std::span<const std::size_t> columns) {
  // Pass each packed column its OWN (seed, application-count) identity:
  // the streams a solo solve of that column would be consuming right now.
  ctx_seeds_.resize(k);
  ctx_sequences_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t c = columns[j];
    ctx_seeds_[j] = seeds_[c];
    ctx_sequences_[j] = counters_[c];
  }
  backend_.sweep(x, k, y,
                 {.seeds = ctx_seeds_,
                  .sequences = ctx_sequences_,
                  .verdict = &verdict_});
  for (std::size_t j = 0; j < k; ++j) ++counters_[columns[j]];
}

namespace {

// Per-column bookkeeping shared by both lockstep drivers. The column's
// numeric state lives in the big column-major arrays; this tracks its
// scalars and lifecycle.
struct ColumnState {
  detail::Monitor monitor;
  SolveResult result;
  // +infinity until the column's first residual is computed: a column the
  // ABFT verdict rejects on the warm-start apply never had one, and must
  // not report 0 (which reads as perfectly converged).
  double rnorm = std::numeric_limits<double>::infinity();
  bool done = false;

  explicit ColumnState(const SolveOptions& options) : monitor(options) {}
};

std::span<double> column(std::vector<double>& v, std::size_t c,
                         std::size_t n) {
  return {v.data() + c * n, n};
}

std::span<const double> column(const std::vector<double>& v, std::size_t c,
                               std::size_t n) {
  return {v.data() + c * n, n};
}

void finalize(ColumnState& col, SolveStatus status, long k) {
  col.result.status = status;
  col.result.iterations = detail::reported_iterations(status, k);
  col.result.final_residual = col.rnorm;
  col.done = true;
}

// Collects the structured failure report: every non-converged column with
// its status, terminal iteration, and last residual known good (the
// monitor's best finite residual; the final residual when nothing finite
// was ever checked).
void collect_failures(BatchedSolveResult& batch,
                      const std::vector<ColumnState>& cols) {
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const SolveResult& r = cols[c].result;
    if (r.status == SolveStatus::kConverged) continue;
    double last_good = cols[c].monitor.best_residual();
    if (!std::isfinite(last_good)) last_good = r.final_residual;
    batch.failures.push_back(ColumnFailure{
        .column = c,
        .status = r.status,
        .iteration = r.iterations,
        .last_good_residual = last_good,
    });
  }
}

// Materializes the per-column SolveOptions the monitors reference: a copy
// of `options` per column, with tolerances[c] (when provided) replacing
// options.tolerance. The vector must outlive the ColumnStates — Monitor
// holds its options by reference.
std::vector<SolveOptions> column_options(const SolveOptions& options,
                                         std::size_t k,
                                         std::span<const double> tolerances) {
  std::vector<SolveOptions> opts(k, options);
  if (!tolerances.empty()) {
    for (std::size_t c = 0; c < k && c < tolerances.size(); ++c) {
      opts[c].tolerance = tolerances[c];
    }
  }
  return opts;
}

void drop_done(std::vector<std::size_t>& active,
               const std::vector<ColumnState>& cols) {
  active.erase(std::remove_if(active.begin(), active.end(),
                              [&](std::size_t c) { return cols[c].done; }),
               active.end());
}

// After a checked apply: finalize every column the ABFT verdict flagged as
// kCorrupted, mapping the verdict's packed indices back to original batch
// columns. The flagged output is about to be dropped from the lockstep
// (callers drop_done before consuming the apply), so x holds the last-good
// iterate. No-op for unchecked operators and clean applies.
void finalize_corrupted(MultiOperator& op,
                        const std::vector<std::size_t>& active,
                        std::vector<ColumnState>& cols, long it) {
  const core::SweepVerdict* v = op.last_verdict();
  if (v == nullptr || !v->checked || v->ok) return;
  for (const std::size_t packed : v->bad_columns) {
    if (packed < active.size()) {
      finalize(cols[active[packed]], SolveStatus::kCorrupted, it);
    }
  }
}

// Packs the active columns' vectors into a dense batch, applies, and
// scatters the results back into each column's destination array. The
// copies move bits, not arithmetic, so column results match single applies.
// Every apply goes through apply_multi_cols with the active column ids, so
// stochastic operators keep per-column stream identity through dropout.
// Columns the operator's ABFT verdict flags are finalized as kCorrupted
// here; callers must drop_done before consuming the apply's output.
void batched_apply(MultiOperator& op, const std::vector<std::size_t>& active,
                   const std::vector<double>& src, std::vector<double>& dst,
                   std::size_t n, std::vector<double>& in_buf,
                   std::vector<double>& out_buf, BatchedSolveResult& tally,
                   std::vector<ColumnState>& cols, long it) {
  const std::size_t ka = active.size();
  if (ka == 0) return;
  // While every column is still live (`active` is sorted and unique, so
  // full size means the identity set) the column-major arrays already ARE
  // the batch — skip the 2*k*n pack/scatter copies of the common case.
  if (ka * n == src.size()) {
    op.apply_multi_cols(src, ka, dst, active);
    tally.batched_applies += 1;
    tally.column_applies += static_cast<long>(ka);
    finalize_corrupted(op, active, cols, it);
    return;
  }
  in_buf.resize(ka * n);
  out_buf.resize(ka * n);
  for (std::size_t idx = 0; idx < ka; ++idx) {
    const auto from = column(src, active[idx], n);
    std::copy(from.begin(), from.end(), in_buf.begin() + idx * n);
  }
  op.apply_multi_cols({in_buf.data(), ka * n}, ka, {out_buf.data(), ka * n},
                      active);
  for (std::size_t idx = 0; idx < ka; ++idx) {
    const auto to = column(dst, active[idx], n);
    std::copy(out_buf.begin() + idx * n, out_buf.begin() + (idx + 1) * n,
              to.begin());
  }
  tally.batched_applies += 1;
  tally.column_applies += static_cast<long>(ka);
  finalize_corrupted(op, active, cols, it);
}

}  // namespace

BatchedSolveResult cg_multi(MultiOperator& op, std::span<const double> b,
                            std::size_t k, const SolveOptions& options,
                            std::span<const double> tolerances,
                            std::span<const double> x0) {
  const std::size_t n = static_cast<std::size_t>(op.dim());
  BatchedSolveResult batch;
  const std::vector<SolveOptions> col_opts =
      column_options(options, k, tolerances);
  std::vector<ColumnState> cols;
  cols.reserve(k);
  std::vector<double> x(k * n, 0.0);
  std::vector<double> r(b.begin(), b.begin() + static_cast<long>(k * n));
  std::vector<double> ap(k * n, 0.0);
  std::vector<double> rho(k, 0.0);
  std::vector<std::size_t> active;
  std::vector<double> in_buf;
  std::vector<double> out_buf;

  for (std::size_t c = 0; c < k; ++c) {
    cols.emplace_back(col_opts[c]);
    active.push_back(c);
  }
  if (!x0.empty()) {
    std::copy(x0.begin(), x0.begin() + static_cast<long>(k * n), x.begin());
    batched_apply(op, active, x, ap, n, in_buf, out_buf, batch, cols, 0);
    drop_done(active, cols);
    for (const std::size_t c : active) {
      sparse::sub(b.subspan(c * n, n), column(ap, c, n), column(r, c, n));
    }
  }
  std::vector<double> p(r);
  for (const std::size_t c : active) {
    rho[c] = sparse::dot(column(r, c, n), column(r, c, n));
    cols[c].rnorm = std::sqrt(rho[c]);
    if (options.record_trace) cols[c].result.trace.push_back(cols[c].rnorm);
  }

  long it = 0;
  while (!active.empty()) {
    for (const std::size_t c : active) {
      if (const auto status = cols[c].monitor.check(it, cols[c].rnorm)) {
        finalize(cols[c], *status, it);
      }
    }
    drop_done(active, cols);
    if (active.empty()) break;
    ++it;

    // ONE SpMM for every column still iterating (the batched hot path).
    batched_apply(op, active, p, ap, n, in_buf, out_buf, batch, cols, it);
    drop_done(active, cols);

    for (const std::size_t c : active) {
      const auto pc = column(p, c, n);
      const auto apc = column(ap, c, n);
      const double p_ap = sparse::dot(pc, apc);
      if (!std::isfinite(p_ap) || p_ap == 0.0) {
        finalize(cols[c], SolveStatus::kBreakdown, it);
        continue;
      }
      const double alpha = rho[c] / p_ap;
      sparse::axpy(alpha, pc, column(x, c, n));
      sparse::axpy(-alpha, apc, column(r, c, n));
      const double rho_next =
          sparse::dot(column(r, c, n), column(r, c, n));
      cols[c].rnorm = std::sqrt(rho_next);
      if (options.record_trace) {
        cols[c].result.trace.push_back(cols[c].rnorm);
      }
      sparse::xpby(column(r, c, n), rho_next / rho[c], pc);
      rho[c] = rho_next;
    }
    drop_done(active, cols);
  }

  collect_failures(batch, cols);
  for (std::size_t c = 0; c < k; ++c) {
    const auto xc = column(x, c, n);
    cols[c].result.solution.assign(xc.begin(), xc.end());
    batch.columns.push_back(std::move(cols[c].result));
  }
  return batch;
}

BatchedSolveResult bicgstab_multi(MultiOperator& op,
                                  std::span<const double> b, std::size_t k,
                                  const SolveOptions& options,
                                  std::span<const double> tolerances,
                                  std::span<const double> x0) {
  const std::size_t n = static_cast<std::size_t>(op.dim());
  BatchedSolveResult batch;
  const std::vector<SolveOptions> col_opts =
      column_options(options, k, tolerances);
  std::vector<ColumnState> cols;
  cols.reserve(k);
  std::vector<double> x(k * n, 0.0);
  std::vector<double> r(b.begin(), b.begin() + static_cast<long>(k * n));
  std::vector<double> p(k * n, 0.0);
  std::vector<double> v(k * n, 0.0);
  std::vector<double> s(k * n, 0.0);
  std::vector<double> t(k * n, 0.0);
  std::vector<double> rho(k, 1.0);
  std::vector<double> alpha(k, 1.0);
  std::vector<double> omega(k, 1.0);
  std::vector<double> rho_next(k, 0.0);
  std::vector<double> best_since_restart(k, 0.0);
  std::vector<int> restarts(k, 0);
  constexpr int kMaxRestarts = 40;
  constexpr double kRestartGrowth = 100.0;
  std::vector<std::size_t> active;
  std::vector<std::size_t> subset;
  std::vector<double> in_buf;
  std::vector<double> out_buf;

  for (std::size_t c = 0; c < k; ++c) {
    cols.emplace_back(col_opts[c]);
    active.push_back(c);
  }
  if (!x0.empty()) {
    std::copy(x0.begin(), x0.begin() + static_cast<long>(k * n), x.begin());
    batched_apply(op, active, x, t, n, in_buf, out_buf, batch, cols, 0);
    drop_done(active, cols);
    for (const std::size_t c : active) {
      sparse::sub(b.subspan(c * n, n), column(t, c, n), column(r, c, n));
    }
  }
  std::vector<double> r_shadow(r);
  for (const std::size_t c : active) {
    cols[c].rnorm = sparse::norm2(column(r, c, n));
    best_since_restart[c] = cols[c].rnorm;
    if (options.record_trace) cols[c].result.trace.push_back(cols[c].rnorm);
  }

  long it = 0;
  while (!active.empty()) {
    for (const std::size_t c : active) {
      if (const auto status = cols[c].monitor.check(it, cols[c].rnorm)) {
        finalize(cols[c], *status, it);
      }
    }
    drop_done(active, cols);
    if (active.empty()) break;
    ++it;

    // Restart rescue: recompute r = b - A x for the columns whose recursive
    // residual detached. All restarting columns share one SpMM.
    subset.clear();
    for (const std::size_t c : active) {
      if (cols[c].rnorm > kRestartGrowth * best_since_restart[c] &&
          restarts[c] < kMaxRestarts) {
        subset.push_back(c);
      }
    }
    batched_apply(op, subset, x, t, n, in_buf, out_buf, batch, cols, it);
    for (const std::size_t c : subset) {
      if (cols[c].done) continue;  // restart apply flagged this column
      ++restarts[c];
      sparse::sub(b.subspan(c * n, n), column(t, c, n), column(r, c, n));
      const auto rc = column(r, c, n);
      std::copy(rc.begin(), rc.end(), column(r_shadow, c, n).begin());
      sparse::fill(column(p, c, n), 0.0);
      sparse::fill(column(v, c, n), 0.0);
      rho[c] = alpha[c] = omega[c] = 1.0;
      cols[c].rnorm = sparse::norm2(rc);
      best_since_restart[c] = cols[c].rnorm;
    }

    drop_done(active, cols);

    for (const std::size_t c : active) {
      rho_next[c] = sparse::dot(column(r_shadow, c, n), column(r, c, n));
      if (!std::isfinite(rho_next[c]) || rho_next[c] == 0.0) {
        finalize(cols[c], SolveStatus::kBreakdown, it);
        continue;
      }
      const double beta = (rho_next[c] / rho[c]) * (alpha[c] / omega[c]);
      const auto rc = column(r, c, n);
      const auto pc = column(p, c, n);
      const auto vc = column(v, c, n);
      for (std::size_t i = 0; i < n; ++i) {
        pc[i] = rc[i] + beta * (pc[i] - omega[c] * vc[i]);
      }
    }
    drop_done(active, cols);

    // First SpMM of the iteration proper: v = A p for all live columns.
    batched_apply(op, active, p, v, n, in_buf, out_buf, batch, cols, it);
    drop_done(active, cols);
    for (const std::size_t c : active) {
      const double rhat_v =
          sparse::dot(column(r_shadow, c, n), column(v, c, n));
      if (!std::isfinite(rhat_v) || rhat_v == 0.0) {
        finalize(cols[c], SolveStatus::kBreakdown, it);
        continue;
      }
      alpha[c] = rho_next[c] / rhat_v;
      const auto rc = column(r, c, n);
      const auto vc = column(v, c, n);
      const auto sc = column(s, c, n);
      for (std::size_t i = 0; i < n; ++i) sc[i] = rc[i] - alpha[c] * vc[i];
      const double snorm = sparse::norm2(sc);
      if (snorm <= col_opts[c].tolerance) {
        sparse::axpy(alpha[c], column(p, c, n), column(x, c, n));
        cols[c].rnorm = snorm;
        if (options.record_trace) {
          cols[c].result.trace.push_back(cols[c].rnorm);
        }
        finalize(cols[c], SolveStatus::kConverged, it);
      }
    }
    drop_done(active, cols);

    // Second SpMM: t = A s for the columns that did not exit early.
    batched_apply(op, active, s, t, n, in_buf, out_buf, batch, cols, it);
    drop_done(active, cols);
    for (const std::size_t c : active) {
      const auto sc = column(s, c, n);
      const auto tc = column(t, c, n);
      const double t_t = sparse::dot(tc, tc);
      if (!std::isfinite(t_t) || t_t == 0.0) {
        finalize(cols[c], SolveStatus::kBreakdown, it);
        continue;
      }
      omega[c] = sparse::dot(tc, sc) / t_t;
      if (!std::isfinite(omega[c]) || omega[c] == 0.0) {
        finalize(cols[c], SolveStatus::kBreakdown, it);
        continue;
      }
      const auto xc = column(x, c, n);
      const auto pc = column(p, c, n);
      const auto rc = column(r, c, n);
      for (std::size_t i = 0; i < n; ++i) {
        xc[i] += alpha[c] * pc[i] + omega[c] * sc[i];
        rc[i] = sc[i] - omega[c] * tc[i];
      }
      rho[c] = rho_next[c];
      cols[c].rnorm = sparse::norm2(rc);
      if (cols[c].rnorm < best_since_restart[c]) {
        best_since_restart[c] = cols[c].rnorm;
      }
      if (options.record_trace) {
        cols[c].result.trace.push_back(cols[c].rnorm);
      }
    }
    drop_done(active, cols);
  }

  collect_failures(batch, cols);
  for (std::size_t c = 0; c < k; ++c) {
    const auto xc = column(x, c, n);
    cols[c].result.solution.assign(xc.begin(), xc.end());
    batch.columns.push_back(std::move(cols[c].result));
  }
  return batch;
}

std::vector<double> make_rhs_batch(const sparse::Csr& a, std::size_t k,
                                   double norm) {
  const std::size_t n = static_cast<std::size_t>(a.rows());
  std::vector<double> b(k * n, 0.0);
  // Column 0 is exactly make_rhs(a, norm) so batched runs stay comparable
  // with every single-RHS record; later columns fork the seed per column.
  const std::uint64_t base_seed = rhs_seed(a);
  for (std::size_t j = 0; j < k; ++j) {
    if (j == 0) {
      const std::vector<double> b0 = make_rhs(a, norm);
      std::copy(b0.begin(), b0.end(), b.begin());
      continue;
    }
    util::Rng rng(util::stream_seed(base_seed, j, 0));
    const std::span<double> col(b.data() + j * n, n);
    for (double& v : col) v = rng.gaussian();
    const double n2 = sparse::norm2(col);
    if (n2 > 0.0) {
      for (double& v : col) v *= norm / n2;
    }
  }
  return b;
}

}  // namespace refloat::solve
