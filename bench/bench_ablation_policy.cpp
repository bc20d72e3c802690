// Ablation: out-of-window value policies (overflow/underflow handling).
//
// With max-anchored bases nothing overflows, so the interesting axis is
// the *underflow* side: what happens to values below the window.
//  * kDenormalize — gradual underflow (bit-plane semantics; default),
//  * kFlushToZero — drop them,
//  * kClampOffsetKeepFraction — the paper's literal wording: keep the
//    truncated fraction at the window floor, INFLATING tiny values.
// The sweep also exercises the overflow policies under the Eq. 5 mean
// base, where saturation actually occurs.
#include <cstdio>

#include "bench/harness.h"
#include "src/solvers/batched.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Ablation: out-of-window quantization policies "
              "(crystm02, CG) ===\n\n");

  const gen::SuiteSpec* spec = gen::find_spec(354);
  const sparse::Csr a = gen::load_or_build(*spec, gen::default_data_dir());
  const std::vector<double> b = solve::make_rhs(a, spec->b_norm);
  solve::SolveOptions opts = evaluation_options();

  struct Case {
    const char* name;
    core::QuantPolicy policy;
  };
  std::vector<Case> cases;
  {
    core::QuantPolicy p;  // defaults: max anchor, denormalize
    cases.push_back({"max-anchor / denormalize (default)", p});
    p.underflow = core::UnderflowMode::kFlushToZero;
    cases.push_back({"max-anchor / flush-to-zero", p});
    p.underflow = core::UnderflowMode::kClampOffsetKeepFraction;
    cases.push_back({"max-anchor / clamp-inflate (paper text)", p});
  }
  {
    core::QuantPolicy p;
    p.base = core::BaseMode::kMeanEq5;
    cases.push_back({"Eq.5 mean / saturate overflow", p});
    p.overflow = core::OverflowMode::kClampOffsetKeepFraction;
    cases.push_back({"Eq.5 mean / clamp overflow (paper text)", p});
  }

  util::CsvWriter csv(results_dir() + "/ablation_policy.csv");
  csv.row({"policy", "conv_error", "flushed", "status", "iterations"});
  util::Table table(
      {"policy", "conv err", "flushed", "status", "iterations"});
  for (const Case& c : cases) {
    const core::RefloatMatrix rf(a, core::default_format(), c.policy);
    const auto op = core::make_value_backend(rf, core::default_tile_count());
    const solve::SolveResult res = solve::cg(*op, b, opts);
    table.add_row({c.name, util::fmt_g(rf.stats().rel_error_fro, 3),
                   std::to_string(rf.stats().flushed_to_zero),
                   solve::status_name(res.status),
                   std::to_string(res.iterations)});
    csv.row({c.name, util::fmt_g(rf.stats().rel_error_fro, 4),
             std::to_string(rf.stats().flushed_to_zero),
             solve::status_name(res.status), std::to_string(res.iterations)});
  }
  table.print();
  std::printf("\nDenormalize and flush-to-zero behave alike (the window "
              "floor is far below the block scale);\nclamp-inflate raises "
              "the noise floor; mean-anchored saturation is the failure "
              "mode of bench_ablation_base.\n");
  return 0;
}
