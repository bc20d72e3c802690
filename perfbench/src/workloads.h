// Workload definitions of the serving benchmark: which matrices a workload
// registers, how the daemon is configured, and the fixed request cycle a
// single closed-loop client replays. Everything here is a pure function of
// (workload, seed): the same seed gives the same requests in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/format.h"
#include "src/core/sweep_backend.h"
#include "src/serve/daemon.h"
#include "src/sparse/csr.h"

namespace perfbench {

// A servable matrix: generated by a gen:: builder on every residency build
// (no disk cache, so set-up time never depends on files earlier runs left).
struct MatrixDef {
  std::string name;
  refloat::core::Format format;
  std::function<refloat::sparse::Csr()> build;
};
// Throws std::invalid_argument on an unknown name.
MatrixDef matrix_def(const std::string& name);

// One residency key a workload requests: matrix x execution view x target.
struct KeyDef {
  std::string matrix;
  refloat::core::BackendKind backend = refloat::core::BackendKind::kValue;
  double tolerance = 1e-8;
};

struct WorkloadDef {
  std::string name;
  int threads = 2;  // REFLOAT_THREADS pinned for the whole process
  refloat::serve::ServeConfig serve;
  std::size_t burst = 1;        // same-key requests submitted together
  std::vector<KeyDef> rotation;  // one round of key visits, in order
  int rounds_per_cycle = 4;      // rounds with distinct right-hand sides
  double fault_rate = 0.0;       // sweep-site fault rate; 0 = none armed
  // Set-ups per run (setup_s is their median): a fixed count, so every run
  // allocates and frees in the same order, sized to about 3 s of set-up.
  int setups = 5;
  // Host estimate of one round, used only to size the traced pass (a fixed
  // whole number of cycles for a given --seconds).
  double nominal_round_s = 1.0;
};

const WorkloadDef* find_workload(const std::string& name);

// One planned request. Its inputs depend only on the workload seed and its
// position in the cycle, so every cycle repeats the same systems.
struct Planned {
  std::size_t position = 0;  // index within the cycle
  std::size_t key = 0;       // index into WorkloadDef::rotation
  std::uint64_t rhs_seed = 0;
  std::uint64_t noise_seed = 0;
  bool want_solution = false;
};

// One cycle as a list of visits; each visit is one burst of same-key
// requests (a single request when burst == 1). Rounds interleave the keys
// round-robin so host-speed drift hits every request class alike.
std::vector<std::vector<Planned>> plan_cycle(const WorkloadDef& w,
                                             std::uint64_t seed);
refloat::serve::SolveRequest make_request(const WorkloadDef& w,
                                          const Planned& p);

// Seed of the sweep-site fault stream for this workload seed.
std::uint64_t fault_seed(std::uint64_t seed);

// The exact matrices behind a workload, built once outside every timed
// phase: dimensions, the right-hand sides' size, the structural block
// count the arch model prices, and the reference for residual checks.
struct ExactMatrix {
  refloat::sparse::Csr csr;
  refloat::core::Format format;
  std::size_t blocks = 0;  // nonzero 2^b x 2^b blocks of the exact CSR
};
using Matrices = std::map<std::string, ExactMatrix>;
Matrices build_exact(const WorkloadDef& w);

// Modeled accelerator seconds of one answered request: its batch's k-RHS
// solve at the request's iterations (arch::accelerator_batched_solve_time,
// or the bit-true variant), with the solver profile the daemon routed to,
// shared evenly over the batch. Exactly deterministic.
struct ModelTime {
  double total_s = 0.0;
  double spmv_s = 0.0;
  double vector_s = 0.0;
  double program_s = 0.0;
};
ModelTime model_request(const KeyDef& key, const ExactMatrix& m,
                        const refloat::serve::SolveResponse& r);

// A burst as the client saw it: what was sent, what came back, and the
// counters read around it (the client is the only submitter, so the
// daemon is idle between bursts and these reads are exact).
struct BatchRecord {
  std::vector<Planned> planned;
  std::vector<refloat::serve::SolveResponse> responses;
  std::uint64_t fault_events = 0;  // sweep-site events before the submit
  std::uint64_t fault_events_after = 0;  // ... and after the last reply
  std::uint64_t faults_fired = 0;  // sweep faults that fired in the burst
  long builds = 0;                 // builder invocations during the burst
  std::size_t evictions = 0;       // cache evictions during the burst
};

}  // namespace perfbench
