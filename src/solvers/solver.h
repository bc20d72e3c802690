// Common solver vocabulary: solve options/results and right-hand-side
// construction. The Krylov methods (src/solvers/batched.h) run against
// core::SweepBackend.
//
// Residual convention: right-hand sides are normalized (||b|| = b_norm, 1.0
// by default), and all residual thresholds are absolute L2 norms — identical
// to relative residuals at ||b|| = 1, which is the paper's tau = 1e-8 setup.
#pragma once

#include <span>
#include <vector>

#include "src/sparse/csr.h"

namespace refloat::solve {

enum class SolveStatus {
  kConverged,
  kMaxIterations,
  kStalled,    // no residual progress within options.stall_window iterations
  kDiverged,   // residual exceeded divergence_factor
  kBreakdown,  // non-finite or zero curvature / rho / omega
  kCorrupted,  // ABFT checksum mismatch on an operator apply — the sweep
               // output was discarded before touching x, so the solution
               // holds the last iterate known good
};

const char* status_name(SolveStatus status);

struct SolveOptions {
  double tolerance = 1e-8;        // absolute residual target
  long max_iterations = 10000;
  double divergence_factor = 1e10;
  // 0 disables stall detection. A run stalls when the best residual has not
  // improved by at least 0.1% for this many iterations.
  long stall_window = 0;
  bool record_trace = true;
};

struct SolveResult {
  SolveStatus status = SolveStatus::kMaxIterations;
  long iterations = 0;
  double final_residual = 0.0;  // solver's recursive residual norm
  double true_residual = 0.0;   // set by attach_true_residual
  std::vector<double> solution;
  std::vector<double> trace;    // residual norm per iteration (incl. r0)
};

// The shape-derived RNG seed behind make_rhs — shared with
// solve::make_rhs_batch so batch column 0 always reproduces the
// single-RHS system exactly.
std::uint64_t rhs_seed(const sparse::Csr& a);

// Deterministic Gaussian right-hand side scaled to ||b|| = norm. Seeded from
// the matrix shape so every platform solves the identical system.
std::vector<double> make_rhs(const sparse::Csr& a, double norm = 1.0);

// result.true_residual = ||b - A x|| against the exact matrix.
void attach_true_residual(const sparse::Csr& a, std::span<const double> b,
                          SolveResult& result);

}  // namespace refloat::solve
