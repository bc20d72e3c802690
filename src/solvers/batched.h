// Krylov solvers: CG and BiCGSTAB, each implemented once as a lockstep
// driver over k right-hand sides (AX = B), with solve::cg / solve::bicgstab
// as the single-RHS entry points (k = 1 runs of the same drivers).
//
// The accelerator's economics motivate the lockstep form (ROADMAP "batched
// multi-rhs solves"): a programmed crossbar image is expensive to write and
// cheap to reuse, so k independent CG/BiCGSTAB instances advance together
// and merge their operator applications into ONE SpMM per apply point —
// each reprogram round is charged once per batch instead of once per
// right-hand side (arch::spmm_time models the amortization).
//
// Numerical contract: the lockstep drivers are *orchestration only*. Every
// column keeps its own scalars, vectors, and Monitor, and every batched
// apply is column-wise bit-identical to a single apply — so each column's
// trajectory (status, iteration count, solution, trace) is bit-identical
// to a k = 1 solve of that column alone. Columns that terminate drop out
// of the active batch; the remaining columns keep batching.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/solvers/solver.h"

namespace refloat::solve {

// A Y = A X oracle over k column-major vectors (x.size() == k * dim()).
// Implementations decide whether columns share work; the lockstep drivers
// only require column-wise bit-identity with a solo apply of that column.
// BackendMultiOperator below is the implementation for every
// core::SweepBackend; subclasses decorate it (e.g. to time each sweep).
class MultiOperator {
 public:
  virtual ~MultiOperator() = default;
  virtual void apply_multi(std::span<const double> x, std::size_t k,
                           std::span<double> y) = 0;
  // Batched apply over an explicit column subset: `columns` (k entries)
  // names the original batch column each packed vector belongs to. The
  // lockstep drivers route every apply through this so stochastic
  // implementations can keep per-column stream identity when converged
  // columns drop out of the pack; the default discards the identities and
  // delegates to apply_multi — correct for deterministic operators.
  virtual void apply_multi_cols(std::span<const double> x, std::size_t k,
                                std::span<double> y,
                                std::span<const std::size_t> columns) {
    (void)columns;
    apply_multi(x, k, y);
  }
  [[nodiscard]] virtual sparse::Index dim() const = 0;
  [[nodiscard]] virtual std::string label() const = 0;
  // ABFT verdict of the most recent apply when the underlying execution
  // view runs checked sweeps (core::SweepBackend::set_abft); nullptr means
  // this operator is unchecked. The lockstep drivers consult this after
  // every batched apply and finalize flagged columns as kCorrupted before
  // their scalars touch the poisoned output.
  [[nodiscard]] virtual const core::SweepVerdict* last_verdict() const {
    return nullptr;
  }
};

// Routes the lockstep drivers through any core::SweepBackend. For
// stochastic backends it maintains each column's solo stream identity:
// column j keeps its own seed and a private application counter that
// advances only when the column participates in an apply — exactly the
// (seed, sequence++) stream a solo solve of the column would consume — so
// every column of a batched noisy or bit-true solve is bit-identical to
// its solo solve, through dropout, restarts, and early exits. The backend
// is borrowed; one operator instance per solve.
class BackendMultiOperator final : public MultiOperator {
 public:
  // Capacity `k` columns; stochastic identities fork `seed` per column
  // (column 0 keeps it verbatim, matching a default-context noisy
  // backend built with the same seed).
  BackendMultiOperator(core::SweepBackend& backend, std::size_t k,
                       std::uint64_t seed = 0x5eedULL);
  // Explicit per-column seeds (e.g. the serving layer passing each
  // request's own noise seed). An EMPTY list means k = 1 on the backend's
  // default context: a stochastic backend advances its own constructor
  // seed and sweep counter, as solve::cg / solve::bicgstab require.
  BackendMultiOperator(core::SweepBackend& backend,
                       std::vector<std::uint64_t> seeds);

  void apply_multi(std::span<const double> x, std::size_t k,
                   std::span<double> y) override;
  void apply_multi_cols(std::span<const double> x, std::size_t k,
                        std::span<double> y,
                        std::span<const std::size_t> columns) override;
  [[nodiscard]] sparse::Index dim() const override {
    return static_cast<sparse::Index>(backend_.rows());
  }
  [[nodiscard]] std::string label() const override {
    return std::string(backend_.label()) + "+batched";
  }
  [[nodiscard]] const core::SweepVerdict* last_verdict() const override {
    return backend_.abft() != nullptr ? &verdict_ : nullptr;
  }
  [[nodiscard]] core::SweepBackend& backend() { return backend_; }

 private:
  core::SweepBackend& backend_;
  std::vector<std::uint64_t> seeds_;     // per original batch column
  std::vector<std::uint64_t> counters_;  // applies the column took part in
  std::vector<std::uint64_t> ctx_seeds_;
  std::vector<std::uint64_t> ctx_sequences_;
  std::vector<std::size_t> identity_;
  core::SweepVerdict verdict_;  // filled by every checked sweep
};

// One non-converged column of a lockstep solve, in the structured form the
// serving layer's recovery ladder consumes: which column, how it failed,
// when, and the last residual known good (the solution vector in
// BatchedSolveResult::columns[column] holds the matching last-good iterate
// — a kCorrupted column's x was never touched by the flagged sweep).
struct ColumnFailure {
  std::size_t column = 0;
  SolveStatus status = SolveStatus::kMaxIterations;
  long iteration = 0;
  double last_good_residual = 0.0;
};

struct BatchedSolveResult {
  std::vector<SolveResult> columns;  // one per right-hand side, in order
  // Every column that terminated with a status other than kConverged, in
  // column order — the daemon's retry/degrade ladder keys its rungs off
  // these statuses.
  std::vector<ColumnFailure> failures;
  // Operator-application accounting: how many batched apply_multi calls the
  // lockstep run issued vs the per-column applications they carried (the
  // k-sequential-solves count). Their ratio is the reprogram amortization
  // the timing model prices.
  long batched_applies = 0;
  long column_applies = 0;

  [[nodiscard]] bool all_converged() const {
    for (const SolveResult& r : columns) {
      if (r.status != SolveStatus::kConverged) return false;
    }
    return true;
  }
};

// Single-RHS CG (x0 = 0, absolute residual tolerance): column 0 of a k = 1
// cg_multi run whose every apply is a default-context sweep, so a
// stochastic backend advances its own streams. With an ABFT checksum
// attached (SweepBackend::set_abft) a flagged apply ends the solve as
// kCorrupted, x at the last iterate known good, like any lockstep column.
SolveResult cg(core::SweepBackend& backend, std::span<const double> b,
               const SolveOptions& options);

// Single-RHS BiCGSTAB (van der Vorst; one iteration = two applies, Table
// VI's convention): a k = 1 bicgstab_multi run under cg's contract.
SolveResult bicgstab(core::SweepBackend& backend, std::span<const double> b,
                     const SolveOptions& options);

// Lockstep CG on k right-hand sides. `b` holds k column-major vectors of
// op.dim() entries each. Column j's result is bit-identical to
// cg(backend, column j, options) on a backend that draws column j's
// stream identity.
//
// `tolerances` (empty, or exactly k entries) overrides options.tolerance
// per column — the serving layer batches same-matrix requests that arrive
// with different tolerances, and each column must still terminate exactly
// as its solo solve would. Column j with tolerances[j] = t is bit-identical
// to its solo solve with options.tolerance = t.
//
// `x0` (empty, or k column-major vectors) warm-starts the solve: x = x0 and
// r = b - A x0 (one extra batched apply), the recovery ladder's "re-solve
// from the last-good iterate" rung. Empty keeps the classic x = 0 start —
// and only that start carries the bit-identity contract above.
BatchedSolveResult cg_multi(MultiOperator& op, std::span<const double> b,
                            std::size_t k, const SolveOptions& options,
                            std::span<const double> tolerances = {},
                            std::span<const double> x0 = {});

// Lockstep BiCGSTAB (same contract, including the restart rescue and the
// early s-norm exit — the early exit also honors the per-column tolerance).
BatchedSolveResult bicgstab_multi(MultiOperator& op,
                                  std::span<const double> b, std::size_t k,
                                  const SolveOptions& options,
                                  std::span<const double> tolerances = {},
                                  std::span<const double> x0 = {});

// k deterministic right-hand sides (column-major), each scaled to
// ||b_j|| = norm: column 0 is make_rhs(a, norm); later columns perturb the
// stream seed so a batch exercises genuinely distinct systems.
std::vector<double> make_rhs_batch(const sparse::Csr& a, std::size_t k,
                                   double norm = 1.0);

}  // namespace refloat::solve
