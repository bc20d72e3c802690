// BiCGSTAB (van der Vorst) — the paper's second evaluated solver. One
// iteration = two operator applications (k = 1 default-context sweeps);
// iteration counts match Table VI's convention. The serial reference
// bicgstab_multi is pinned against.
#pragma once

#include <span>

#include "src/core/sweep_backend.h"
#include "src/solvers/solver.h"

namespace refloat::solve {

SolveResult bicgstab(core::SweepBackend& op, std::span<const double> b,
                     const SolveOptions& options);

}  // namespace refloat::solve
