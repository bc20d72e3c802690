#include "perfbench/src/workloads.h"

#include <stdexcept>

#include "src/arch/config.h"
#include "src/arch/timing.h"
#include "src/gen/grid.h"
#include "src/gen/suite.h"
#include "src/sparse/blocked.h"
#include "src/util/random.h"

namespace perfbench {

using refloat::core::BackendKind;

namespace {

// The bit-true class runs on a 20x16 Laplacian (7 blocks): a bit-true
// sweep costs ~0.5 ms per block here, so a larger operator would let the
// minority bit-true share dominate the churn workload's time.
constexpr const char* kBitTrueMatrix = "laplace20x16";

refloat::serve::ServeConfig base_serve() {
  refloat::serve::ServeConfig c;
  c.tiles = 1;  // pinned: never read REFLOAT_TILES
  return c;
}

std::vector<WorkloadDef> make_workloads() {
  std::vector<WorkloadDef> all;

  // solo: one request in flight, so every batch is k=1 and each request
  // waits out the 2 ms batch window alone. Five classes in equal shares
  // put p50 mid-way through the third-cheapest class and p90 mid-way
  // through the dearest, never on a class boundary.
  WorkloadDef solo;
  solo.name = "solo";
  solo.serve = base_serve();
  solo.rotation = {{"shallow_water1"},
                   {"crystm02"},
                   {"qa8fm"},
                   {"wathen120"},
                   {"thermomech_TC"}};
  solo.rounds_per_cycle = 4;
  solo.nominal_round_s = 0.75;
  all.push_back(solo);

  // burst8: eight same-key requests at once fill max_batch immediately;
  // the window is long enough that only a full batch ever dispatches, so
  // batch composition never depends on thread timing.
  WorkloadDef burst8;
  burst8.name = "burst8";
  burst8.serve = base_serve();
  burst8.serve.max_batch = 8;
  burst8.serve.batch_window_ms = 1000.0;
  burst8.burst = 8;
  burst8.rotation = {{"crystm01", BackendKind::kValue},
                     {"crystm02", BackendKind::kNoisy},
                     {"crystm03", BackendKind::kValue},
                     {"crystm01", BackendKind::kNoisy},
                     {"crystm02", BackendKind::kValue}};
  burst8.rounds_per_cycle = 1;
  burst8.setups = 7;
  burst8.nominal_round_s = 1.8;
  all.push_back(burst8);

  // churn: a 22 MB cache under a 17.5 + 9.8 MB value working set. Per
  // round crystm03 and crystm02 each miss (rebuild) then hit, and the
  // bit-true key is rebuilt (reprogrammed) in between: three builds and
  // three evictions per round, whatever the bit-true entry's size. At a
  // 2e-4 sweep fault rate ~1.6% of solves see a fault; a value request the
  // two-rung ladder cannot heal needs three faulted solves in a row
  // (~4e-6 per request), where 1e-3 lost about one request in 2000.
  WorkloadDef churn;
  churn.name = "churn";
  churn.serve = base_serve();
  churn.serve.cache_bytes = 22ull << 20;
  churn.rotation = {{"crystm03"},
                    {"crystm03"},
                    {kBitTrueMatrix, BackendKind::kBitTrue, 1e-3},
                    {"crystm02"},
                    {"crystm02"}};
  churn.rounds_per_cycle = 4;
  churn.fault_rate = 2e-4;
  churn.setups = 11;
  churn.nominal_round_s = 0.7;
  all.push_back(churn);

  return all;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> all = make_workloads();
  return all;
}

}  // namespace

MatrixDef matrix_def(const std::string& name) {
  if (name == kBitTrueMatrix) {
    return {name, refloat::core::default_format(), [] {
              return refloat::gen::build_stencil(
                         refloat::gen::laplace2d_5pt(20, 16))
                  .shifted(0.15);
            }};
  }
  for (const refloat::gen::SuiteSpec& spec : refloat::gen::suite()) {
    if (name != spec.name) continue;
    const refloat::gen::SuiteSpec* p = &spec;  // suite() is static storage
    return {name,
            spec.fv_override != 0 ? refloat::core::default_format_fv16()
                                  : refloat::core::default_format(),
            [p] { return refloat::gen::build(*p); }};
  }
  throw std::invalid_argument("unknown matrix " + name);
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::vector<Planned>> plan_cycle(const WorkloadDef& w,
                                             std::uint64_t seed) {
  std::vector<std::vector<Planned>> visits;
  std::size_t position = 0;
  for (int round = 0; round < w.rounds_per_cycle; ++round) {
    for (std::size_t key = 0; key < w.rotation.size(); ++key) {
      std::vector<Planned> visit;
      for (std::size_t j = 0; j < w.burst; ++j, ++position) {
        Planned p;
        p.position = position;
        p.key = key;
        p.rhs_seed = refloat::util::stream_seed(seed, 1, position);
        p.noise_seed = refloat::util::stream_seed(seed, 2, position);
        // A fixed subset returns its solution for the residual check.
        p.want_solution = position % 7 == 0;
        visit.push_back(p);
      }
      visits.push_back(std::move(visit));
    }
  }
  return visits;
}

refloat::serve::SolveRequest make_request(const WorkloadDef& w,
                                          const Planned& p) {
  const KeyDef& key = w.rotation[p.key];
  refloat::serve::SolveRequest r;
  r.matrix = key.matrix;
  r.rhs_seed = p.rhs_seed;  // the daemon expands it with serve::seeded_rhs
  r.tolerance = key.tolerance;
  r.want_solution = p.want_solution;
  r.backend = key.backend;
  r.noise_seed = p.noise_seed;
  return r;
}

std::uint64_t fault_seed(std::uint64_t seed) {
  return refloat::util::stream_seed(seed, 3, 0);
}

Matrices build_exact(const WorkloadDef& w) {
  Matrices out;
  for (const KeyDef& key : w.rotation) {
    if (out.count(key.matrix) != 0) continue;
    const MatrixDef def = matrix_def(key.matrix);
    ExactMatrix m{def.build(), def.format, 0};
    m.blocks =
        refloat::sparse::BlockedMatrix(m.csr, def.format.b).nonzero_blocks();
    out.emplace(key.matrix, std::move(m));
  }
  return out;
}

ModelTime model_request(const KeyDef& key, const ExactMatrix& m,
                        const refloat::serve::SolveResponse& r) {
  namespace arch = refloat::arch;
  const arch::AcceleratorConfig config = arch::refloat_config(m.format);
  const arch::SolverProfile profile = std::string(r.solver) == "bicgstab"
                                          ? arch::bicgstab_profile()
                                          : arch::cg_profile();
  const long k = static_cast<long>(r.batch_k);
  const arch::SolveTime t =
      key.backend == BackendKind::kBitTrue
          ? arch::bit_true_batched_solve_time(config, m.blocks, m.csr.rows(),
                                              r.iterations, profile, k)
          : arch::accelerator_batched_solve_time(
                config, m.blocks, m.csr.rows(), r.iterations, profile, k);
  const double inv = 1.0 / static_cast<double>(k);
  return {t.total_seconds * inv, t.spmv_seconds * inv,
          t.vector_seconds * inv, t.program_seconds * inv};
}

}  // namespace perfbench
