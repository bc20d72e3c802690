// Tile-sweep study (ISSUE 7): shards one SpmvPlan across N modeled ReRAM
// tiles and reports what scale-out buys and costs.
//
// Part 1 (modeled): per-tile capacity small enough that the monolithic
// accelerator reprograms every pass. All tiles share one host programming
// stream, so scale-out does not shrink the write work — it shrinks each
// tile's shard until the shard fits and the writes vanish entirely. The
// sweep tabulates pass time, per-tile utilization spread, link traffic and
// partition balance across that transition.
//
// Part 2 (bit-true): CG through tiled crossbars programmed with stuck-at-1
// faults, each tile carrying its own defect population and its own ECC
// correction budget. Total correction capacity scales with tile count
// while each tile's defect share shrinks, so the surviving-fault count
// falls monotonically with tiles and hits zero once every tile's share
// fits its budget.
#include <algorithm>
#include <cstdio>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/arch/schedule.h"
#include "src/arch/timing.h"
#include "src/core/tiled_plan.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/solvers/batched.h"
#include "src/solvers/solver.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace refloat::bench {
namespace {

double min_tile_utilization(const arch::ScheduleStats& stats) {
  double lo = 1.0;
  for (const double u : stats.tile_utilization) lo = std::min(lo, u);
  return lo;
}

}  // namespace
}  // namespace refloat::bench

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Tile sweep: sharded SpmvPlan across modeled ReRAM tiles "
              "===\n\n");
  util::Timer sweep_timer;

  // --- Part 1: modeled pass time and link traffic ------------------------
  // 64x64 grid at b=4 -> 256 block-rows; a 96-cluster tile holds ~1/8 of
  // the blocks, so one tile reprograms every pass.
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a_model =
      gen::build_stencil(gen::laplace2d_5pt(64, 64)).shifted(0.2);
  const core::RefloatMatrix rf_model(a_model, fmt);
  arch::AcceleratorConfig config = arch::refloat_config(fmt);
  const long long capacity = 96;
  config.total_crossbars =
      capacity * arch::crossbars_per_cluster(config.format);
  config.ecc_round_ns = 40.0;

  std::printf("Matrix: 64x64 Poisson grid (%lld rows, %zu blocks, %zu nnz); "
              "per-tile capacity %lld clusters; ECC check %.0f ns/round.\n\n",
              static_cast<long long>(a_model.rows()),
              rf_model.plan().num_blocks(), rf_model.plan().num_entries(),
              capacity, config.ecc_round_ns);

  util::CsvWriter csv(results_dir() + "/tiles.csv");
  csv.row({"tiles", "rounds", "pass_us", "speedup", "util_min", "util_max",
           "broadcast_KB", "reduction_KB", "balance"});
  util::Table table({"tiles", "rounds", "pass t", "speedup", "tile util",
                     "bcast", "reduce", "balance"});
  double base_seconds = 0.0;
  for (const int tiles : {1, 2, 4, 8, 16}) {
    // Partition by tile count alone: a shard larger than the tile's budget
    // runs as multiple reprogram rounds (priced by the timing model), which
    // is exactly what the sweep is trading against interconnect time.
    const core::TiledPlan tiled =
        core::TiledPlan::partition(rf_model.plan(), {.tiles = tiles});
    const arch::ScheduleStats stats =
        arch::simulate_spmv_tiled(config, tiled);
    if (tiles == 1) base_seconds = stats.seconds;
    const double util_min = min_tile_utilization(stats);
    double util_max = 0.0;
    for (const double u : stats.tile_utilization) {
      util_max = std::max(util_max, u);
    }
    const double bcast_kb =
        static_cast<double>(stats.broadcast_bits) / 8e3;
    const double reduce_kb =
        static_cast<double>(stats.reduction_bits) / 8e3;
    table.add_row(
        {std::to_string(stats.tiles), std::to_string(stats.rounds),
         util::fmt_duration(stats.seconds),
         util::fmt_f(base_seconds / stats.seconds, 2) + "x",
         util::fmt_f(util_min * 100.0, 0) + "-" +
             util::fmt_f(util_max * 100.0, 0) + "%",
         util::fmt_f(bcast_kb, 1) + " KB", util::fmt_f(reduce_kb, 1) + " KB",
         util::fmt_f(tiled.stats().balance, 3)});
    csv.row({std::to_string(stats.tiles), std::to_string(stats.rounds),
             util::fmt_g(stats.seconds * 1e6, 5),
             util::fmt_g(base_seconds / stats.seconds, 4),
             util::fmt_g(util_min, 4), util::fmt_g(util_max, 4),
             util::fmt_g(bcast_kb, 4), util::fmt_g(reduce_kb, 4),
             util::fmt_g(tiled.stats().balance, 4)});
  }
  table.print();
  std::printf(
      "\nAll tiles share one host programming stream, so mid-sweep the pass "
      "stays writer-bound: the same\nwrite jobs drain through the same "
      "writer while the tree broadcast/reduction cost grows — more\ntiles "
      "are briefly *slower*. The payoff lands abruptly at residency: once "
      "every shard fits its tile,\nthe in-pass writes vanish and the pass "
      "collapses to one compute wave plus interconnect.\n\n");

  // --- Part 2: per-tile ECC vs stuck-at faults on the bit-true path ------
  std::printf("=== Per-tile ECC: CG through faulty tiled crossbars (24x24 "
              "Poisson, stuck-at-1) ===\n");
  std::printf("(block-rows sharded over %d threads; REFLOAT_THREADS "
              "overrides)\n\n",
              util::ThreadPool::global().size());
  const sparse::Csr a_hw =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.2);
  const std::vector<double> b = solve::make_rhs(a_hw);
  const core::RefloatMatrix rf_hw(a_hw, fmt);

  solve::SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 4000;
  opts.stall_window = 800;

  const long long ecc_budget = 1024;  // cell-bit repairs per tile
  util::CsvWriter fcsv(results_dir() + "/tiles_faults.csv");
  fcsv.row({"rate", "tiles", "faulty_cells", "corrected_cells", "status",
            "iterations", "residual"});
  util::Table ftable({"sa1 rate", "tiles", "faulty", "corrected", "status",
                      "iters", "final residual"});
  for (const double rate : {1e-3, 3e-3, 1e-2}) {
    for (const int tiles : {1, 2, 4, 8}) {
      hw::ClusterConfig cluster;
      cluster.faults.stuck_at_one_rate = rate;
      cluster.ecc.correct_cells = ecc_budget;
      const core::TiledPlan tiled =
          core::TiledPlan::partition(rf_hw.plan(), {.tiles = tiles});
      hw::BitTrueBackend op(rf_hw, cluster, tiled, /*seed=*/4321);
      const solve::SolveResult res = solve::cg(op, b, opts);
      const hw::EngineStats& es = op.hw().stats();
      ftable.add_row({util::fmt_g(rate, 2), std::to_string(tiles),
                      std::to_string(es.faulty_cells),
                      std::to_string(es.ecc_corrected),
                      solve::status_name(res.status),
                      std::to_string(res.iterations),
                      util::fmt_g(res.final_residual, 3)});
      fcsv.row({util::fmt_g(rate, 3), std::to_string(tiles),
                std::to_string(es.faulty_cells),
                std::to_string(es.ecc_corrected),
                solve::status_name(res.status),
                std::to_string(res.iterations),
                util::fmt_g(res.final_residual, 3)});
    }
  }
  const double sweep_seconds = sweep_timer.seconds();
  ftable.print();
  std::printf(
      "\nEach tile repairs up to %lld stuck defects at programming time "
      "(write-verify + spare cells), so\ntotal correction capacity scales "
      "with tile count while each tile's defect share shrinks: at a fault\n"
      "rate the monolithic budget cannot absorb, sharding the same plan "
      "over more tiles drives the\nsurviving-fault count monotonically to "
      "zero, and the solver recovers the fault-free trajectory\nexactly — "
      "reliability as a scale-out dividend.\n",
      ecc_budget);
  std::printf("\nSweep wall-clock: %.2fs on %d threads.\n", sweep_seconds,
              util::ThreadPool::global().size());
  return 0;
}
