// Conjugate gradients for SPD operators (Algorithm 1 of the paper's
// evaluation setup): x0 = 0, absolute residual tolerance. Every apply is a
// k = 1 default-context sweep of `op`, so a stochastic backend advances
// its own streams. The serial reference cg_multi is pinned against.
#pragma once

#include <span>

#include "src/core/sweep_backend.h"
#include "src/solvers/solver.h"

namespace refloat::solve {

SolveResult cg(core::SweepBackend& op, std::span<const double> b,
               const SolveOptions& options);

}  // namespace refloat::solve
