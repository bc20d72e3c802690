// Table III companion: classic number formats expressed as ReFloat
// instances, run through the same solver harness.
//
// §II-C argues deep-learning formats (bfloat16, ms-fp9, TF32, block FP)
// cannot carry scientific computing because of narrow or non-dynamic
// range. Here each format quantizes the matrix and vectors of a CG solve
// (as ReFloat(b=7, e, f) with per-block bases disabled for the scalar
// formats: b=0 means global exponent handling, approximated by e covering
// the IEEE range). The block formats (ReFloat, BFP) use 128-blocks.
#include <cstdio>

#include "bench/harness.h"
#include "src/solvers/batched.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Table III format zoo on crystm01 (CG, tau=1e-8) ===\n\n");

  const gen::SuiteSpec* spec = gen::find_spec(353);
  const sparse::Csr a = gen::load_or_build(*spec, gen::default_data_dir());
  const std::vector<double> b = solve::make_rhs(a, spec->b_norm);
  solve::SolveOptions opts = evaluation_options();

  struct Entry {
    const char* name;
    core::Format fmt;
  };
  // Scalar formats get b=7 blocking too (their e bits are wide enough to
  // make the block base irrelevant); BFP64 keeps its published b=6.
  auto blocked = [](core::Format f) {
    f.b = 7;
    return f;
  };
  const Entry entries[] = {
      {"ReFloat(7,3,3)(3,8)", core::default_format()},
      {"BFP64 = ReFloat(6,0,52)", core::format_bfp64()},
      {"bfloat16 = ReFloat(0,8,7)", blocked(core::format_bfloat16())},
      {"ms-fp9 = ReFloat(0,5,3)", blocked(core::format_msfp9())},
      {"TensorFloat32 = ReFloat(0,8,10)",
       blocked(core::format_tensorfloat32())},
      {"FP32 = ReFloat(0,8,23)", blocked(core::format_fp32())},
      {"FP64 = ReFloat(0,11,52)", blocked(core::format_fp64())},
  };

  util::CsvWriter csv(results_dir() + "/format_zoo.csv");
  csv.row({"format", "conv_error", "status", "iterations", "model_xbars",
           "model_cycles"});
  util::Table table({"format", "conv err", "status", "iters",
                     "xbars/cluster (Eq.2)", "cycles (Eq.3)"});
  for (const Entry& entry : entries) {
    const core::RefloatMatrix rf(a, entry.fmt);
    const auto op = core::make_value_backend(rf, core::default_tile_count());
    const solve::SolveResult res = solve::cg(*op, b, opts);
    const long xbars = 4L * core::model_bits(entry.fmt.e, entry.fmt.f);
    const long cycles = core::model_bits(entry.fmt.ev, entry.fmt.fv) +
                        core::model_bits(entry.fmt.e, entry.fmt.f) - 1;
    table.add_row({entry.name, util::fmt_g(rf.stats().rel_error_fro, 3),
                   solve::status_name(res.status),
                   std::to_string(res.iterations), util::fmt_i(xbars),
                   util::fmt_i(cycles)});
    csv.row({entry.name, util::fmt_g(rf.stats().rel_error_fro, 4),
             solve::status_name(res.status), std::to_string(res.iterations),
             std::to_string(xbars), std::to_string(cycles)});
  }
  table.print();
  std::printf("\nReFloat reaches FP32-class solver behaviour at a fraction "
              "of the crossbars/cycles; the wide\nformats pay Eq. (2)'s "
              "exponential exponent cost (FP64: 8404 crossbars).\n");
  return 0;
}
