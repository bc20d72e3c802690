// Kernel microbenchmarks (google-benchmark): the computational primitives
// behind the experiment harness — CSR SpMV, ReFloat conversion, vector
// segment quantization, the bit-sliced cluster MVM and the full
// processing-engine pass. These measure *simulator* throughput (host-side),
// not modeled accelerator time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/simd.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/engine.h"
#include "src/solvers/solver.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace {

using namespace refloat;

sparse::Csr make_matrix(long side) {
  return gen::build_stencil(gen::laplace2d_5pt(side, side)).shifted(0.05);
}

// Attaches the derived per-kernel rates: GFLOP/s from the flop count per
// pass and GB/s from the modeled bytes per pass (payload + operand/result
// traffic, no cache reuse credited — an upper bound on true DRAM traffic).
void set_rates(benchmark::State& state, double flops, double bytes) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::OneK::kIs1000);
  state.counters["GB/s"] = benchmark::Counter(
      bytes, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::OneK::kIs1000);
}

void BM_CsrSpmv(benchmark::State& state) {
  const sparse::Csr a = make_matrix(state.range(0));
  std::vector<double> x(a.rows(), 1.0);
  std::vector<double> y(a.rows());
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()));
}
BENCHMARK(BM_CsrSpmv)->Arg(64)->Arg(128)->Arg(256);

void BM_RefloatConversion(benchmark::State& state) {
  const sparse::Csr a = make_matrix(state.range(0));
  const core::Format fmt = core::default_format();
  for (auto _ : state) {
    core::RefloatMatrix rf(a, fmt);
    benchmark::DoNotOptimize(rf.nonzero_blocks());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()));
}
BENCHMARK(BM_RefloatConversion)->Arg(64)->Arg(128);

void BM_QuantizeVector(benchmark::State& state) {
  const sparse::Csr a = make_matrix(128);
  const core::RefloatMatrix rf(a, core::default_format());
  util::Rng rng(5);
  std::vector<double> x(a.rows());
  for (double& v : x) v = rng.gaussian();
  std::vector<double> out(x.size());
  for (auto _ : state) {
    rf.quantize_vector(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(x.size()));
}
BENCHMARK(BM_QuantizeVector);

// Plan-SpMV (the contiguous SoA arena hot path) with throughput counters:
// FLOPS (2 flops per stored nonzero per pass) and the arena's payload
// bytes per nonzero — compare against BM_LegacyBlockSpmv below.
void BM_RefloatSpmv(benchmark::State& state) {
  const sparse::Csr a = make_matrix(state.range(0));
  const core::RefloatMatrix rf(a, core::default_format());
  util::Rng rng(7);
  std::vector<double> x(a.rows());
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(a.rows());
  const auto backend = core::make_value_backend(rf);
  for (auto _ : state) {
    backend->sweep(x, 1, y, {});
    benchmark::DoNotOptimize(y.data());
  }
  const auto nnz = static_cast<double>(rf.plan().num_entries());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()));
  set_rates(state, 2.0 * nnz,
            static_cast<double>(rf.plan().payload_bytes()) + 24.0 * nnz);
  state.counters["bytes_per_nnz"] =
      static_cast<double>(rf.plan().payload_bytes()) / nnz;
}
BENCHMARK(BM_RefloatSpmv)->Arg(64)->Arg(128)->Arg(256);

// The pre-plan payload: one heap-allocated entry vector per block
// (pointer-chasing AoS), rebuilt from the plan and walked in the same
// serial order — the layout baseline the SpmvPlan replaced.
void BM_LegacyBlockSpmv(benchmark::State& state) {
  const sparse::Csr a = make_matrix(state.range(0));
  const core::RefloatMatrix rf(a, core::default_format());
  struct LegacyEntry {
    std::int32_t r, c;
    double v;
  };
  struct LegacyBlock {
    sparse::Index row0, col0;
    std::vector<LegacyEntry> entries;
  };
  const core::SpmvPlan& plan = rf.plan();
  std::vector<LegacyBlock> blocks(plan.num_blocks());
  std::size_t legacy_bytes = plan.num_blocks() * sizeof(LegacyBlock);
  for (std::size_t j = 0; j < plan.num_blocks(); ++j) {
    blocks[j].row0 = plan.row0[j];
    blocks[j].col0 = plan.col0[j];
    for (std::size_t e = plan.entry_ptr[j]; e < plan.entry_ptr[j + 1]; ++e) {
      blocks[j].entries.push_back(
          {plan.entry_row[e], plan.entry_col[e], plan.entry_value[e]});
    }
    legacy_bytes += blocks[j].entries.size() * sizeof(LegacyEntry);
  }
  util::Rng rng(7);
  std::vector<double> x(a.rows());
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(a.rows());
  std::vector<double> xq(x.size());
  for (auto _ : state) {
    rf.quantize_vector(x, xq);
    std::fill(y.begin(), y.end(), 0.0);
    for (const LegacyBlock& block : blocks) {
      for (const LegacyEntry& entry : block.entries) {
        y[static_cast<std::size_t>(block.row0 + entry.r)] +=
            entry.v * xq[static_cast<std::size_t>(block.col0 + entry.c)];
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  const auto nnz = static_cast<double>(plan.num_entries());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()));
  set_rates(state, 2.0 * nnz, static_cast<double>(legacy_bytes) + 24.0 * nnz);
  state.counters["bytes_per_nnz"] = static_cast<double>(legacy_bytes) / nnz;
}
BENCHMARK(BM_LegacyBlockSpmv)->Arg(64)->Arg(128)->Arg(256);

// SpMM with k=8 right-hand sides: every plan block visited once per batch.
void BM_RefloatSpmm8(benchmark::State& state) {
  constexpr std::size_t kRhs = 8;
  const sparse::Csr a = make_matrix(state.range(0));
  const core::RefloatMatrix rf(a, core::default_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  util::Rng rng(7);
  std::vector<double> x(n * kRhs);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n * kRhs);
  const auto backend = core::make_value_backend(rf);
  for (auto _ : state) {
    backend->sweep(x, kRhs, y, {});
    benchmark::DoNotOptimize(y.data());
  }
  const auto nnz = static_cast<double>(rf.plan().num_entries());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()) *
                          static_cast<long>(kRhs));
  set_rates(state, 2.0 * nnz * static_cast<double>(kRhs),
            static_cast<double>(rf.plan().payload_bytes()) +
                24.0 * nnz * static_cast<double>(kRhs));
}
BENCHMARK(BM_RefloatSpmm8)->Arg(64)->Arg(128)->Arg(256);

// Kernel-only views of the same comparison: the raw plan-arena sweeps with
// pre-quantized operands, isolating the batching effect (one index-stream
// pass with an unrolled 8-wide inner loop vs 8 full passes) from the
// per-column vector quantization that both full paths pay identically.
void BM_PlanKernelSpmm8(benchmark::State& state) {
  constexpr std::size_t kRhs = 8;
  const sparse::Csr a = make_matrix(state.range(0));
  const core::RefloatMatrix rf(a, core::default_format());
  const core::SpmvPlan& plan = rf.plan();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  util::Rng rng(7);
  std::vector<double> x(n * kRhs);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n * kRhs);
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t j = 0; j < plan.num_blocks(); ++j) {
      const std::size_t r0 = static_cast<std::size_t>(plan.row0[j]);
      const std::size_t c0 = static_cast<std::size_t>(plan.col0[j]);
      for (std::size_t e = plan.entry_ptr[j]; e < plan.entry_ptr[j + 1];
           ++e) {
        const double v = plan.entry_value[e];
        const double* xs =
            x.data() + (c0 + static_cast<std::size_t>(plan.entry_col[e])) *
                           kRhs;
        double* ys =
            y.data() + (r0 + static_cast<std::size_t>(plan.entry_row[e])) *
                           kRhs;
        for (std::size_t col = 0; col < kRhs; ++col) ys[col] += v * xs[col];
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()) *
                          static_cast<long>(kRhs));
}
BENCHMARK(BM_PlanKernelSpmm8)->Arg(64)->Arg(128)->Arg(256);

void BM_PlanKernelSpmv8Sequential(benchmark::State& state) {
  constexpr std::size_t kRhs = 8;
  const sparse::Csr a = make_matrix(state.range(0));
  const core::RefloatMatrix rf(a, core::default_format());
  const core::SpmvPlan& plan = rf.plan();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  util::Rng rng(7);
  std::vector<double> x(n * kRhs);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n);
  for (auto _ : state) {
    for (std::size_t rhs = 0; rhs < kRhs; ++rhs) {
      const double* xs = x.data() + rhs * n;
      std::fill(y.begin(), y.end(), 0.0);
      for (std::size_t j = 0; j < plan.num_blocks(); ++j) {
        const std::size_t r0 = static_cast<std::size_t>(plan.row0[j]);
        const std::size_t c0 = static_cast<std::size_t>(plan.col0[j]);
        for (std::size_t e = plan.entry_ptr[j]; e < plan.entry_ptr[j + 1];
             ++e) {
          y[r0 + static_cast<std::size_t>(plan.entry_row[e])] +=
              plan.entry_value[e] *
              xs[c0 + static_cast<std::size_t>(plan.entry_col[e])];
        }
      }
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()) *
                          static_cast<long>(kRhs));
}
BENCHMARK(BM_PlanKernelSpmv8Sequential)->Arg(64)->Arg(128)->Arg(256);

// The same 8 right-hand sides as 8 sequential single-RHS SpMVs — the
// baseline BM_RefloatSpmm8 amortizes away.
void BM_RefloatSpmv8Sequential(benchmark::State& state) {
  constexpr std::size_t kRhs = 8;
  const sparse::Csr a = make_matrix(state.range(0));
  const core::RefloatMatrix rf(a, core::default_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  util::Rng rng(7);
  std::vector<double> x(n * kRhs);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n);
  const auto backend = core::make_value_backend(rf);
  for (auto _ : state) {
    for (std::size_t j = 0; j < kRhs; ++j) {
      backend->sweep(std::span<const double>(x).subspan(j * n, n), 1, y, {});
      benchmark::DoNotOptimize(y.data());
    }
  }
  const auto nnz = static_cast<double>(rf.plan().num_entries());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(a.nnz()) *
                          static_cast<long>(kRhs));
  set_rates(state, 2.0 * nnz * static_cast<double>(kRhs),
            static_cast<double>(kRhs) *
                (static_cast<double>(rf.plan().payload_bytes()) + 24.0 * nnz));
}
BENCHMARK(BM_RefloatSpmv8Sequential)->Arg(64)->Arg(128)->Arg(256);

void BM_ClusterMvm(benchmark::State& state) {
  // 128x128 bit-true cluster with the default matrix width (11 planes).
  util::Rng rng(11);
  const int side = 128;
  std::vector<std::vector<std::uint64_t>> m(
      side, std::vector<std::uint64_t>(side, 0));
  for (auto& row : m) {
    for (auto& v : row) {
      if (rng.uniform() < 0.1) v = rng.below(1 << 11);
    }
  }
  hw::CrossbarCluster cluster(m, 11);
  std::vector<std::uint64_t> x(side);
  for (auto& v : x) v = rng.below(1 << 16);
  std::vector<std::int64_t> y(side);
  for (auto _ : state) {
    cluster.mvm(x, 16, y, nullptr, rng);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ClusterMvm);

void BM_EngineApply(benchmark::State& state) {
  util::Rng rng(13);
  const int side = 128;
  std::vector<std::vector<double>> block(side, std::vector<double>(side, 0.0));
  std::vector<double> flat;
  for (auto& row : block) {
    for (auto& v : row) {
      if (rng.uniform() < 0.1) {
        v = rng.gaussian();
        flat.push_back(v);
      }
    }
  }
  const core::Format fmt = core::default_format();
  const int eb = core::select_block_base(flat, fmt.e, {});
  hw::ProcessingEngine engine(block, eb, fmt);
  std::vector<double> x(side);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(side, 0.0);
  for (auto _ : state) {
    engine.apply(x, y, nullptr, rng);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_EngineApply);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record which kernel path these numbers actually measured: the SpMV /
  // quantize benchmarks above run whatever src/core/simd.cc dispatch picks
  // (cpuid, or a REFLOAT_SIMD override).
  benchmark::AddCustomContext(
      "refloat_simd_active",
      core::simd_isa_name(core::simd_active_isa()));
  benchmark::AddCustomContext(
      "refloat_simd_best",
      core::simd_isa_name(core::simd_best_supported()));
  benchmark::AddCustomContext(
      "refloat_threads", std::to_string(util::ThreadPool::default_threads()));
  benchmark::AddCustomContext("refloat_affinity",
                              util::ThreadPool::affinity_mode_name());
  // Tiled execution context: the active tile count ($REFLOAT_TILES) and the
  // partition balance (max/mean shard nnz) it yields on the representative
  // 128x128-grid workload the SpMV benchmarks above use.
  {
    const sparse::Csr a = make_matrix(128);
    const core::RefloatMatrix rf(a, core::default_format());
    const int tiles = core::default_tile_count();
    const core::TiledPlan tiled =
        core::TiledPlan::partition(rf.plan(), {.tiles = tiles});
    benchmark::AddCustomContext("refloat_tiles", std::to_string(tiles));
    char balance[32];
    std::snprintf(balance, sizeof(balance), "%.3f",
                  tiled.stats().balance);
    benchmark::AddCustomContext("refloat_tile_balance", balance);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
