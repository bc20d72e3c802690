#include "src/solvers/reference_backend.h"

#include <cmath>

#include "src/core/format.h"

namespace refloat::solve {

namespace {

// Feinberg et al.'s window below the matrix-global exponent, and the
// fixed-point fraction width inside it.
constexpr int kFeinbergExponentBits = 6;
constexpr int kFeinbergFractionBits = 52;

// Bit truncation of an FP64 to e exponent-field bits / f fraction bits.
// Unlike core::quantize_scalar (a full IEEE mini-float with gradual
// underflow), a truncated exponent *field* has no extended denormal range:
// values whose exponent cannot be encoded flush to zero — which is what
// makes Table I's exponent sweep catastrophic at the crystm matrices'
// ~1e-10 physical scale.
double truncate_fp(double v, int e_bits, int f_bits) {
  if (v == 0.0 || !std::isfinite(v)) return v;
  const int bias = (1 << (e_bits - 1)) - 1;
  const int exponent = std::ilogb(v);
  if (exponent < 1 - bias) return 0.0;
  const double sign = v < 0.0 ? -1.0 : 1.0;
  if (exponent > bias) {
    return sign * std::ldexp(2.0 - std::ldexp(1.0, -f_bits), bias);
  }
  const double step = std::ldexp(1.0, exponent - f_bits);
  const double q = std::nearbyint(v / step) * step;
  if (std::abs(q) >= std::ldexp(2.0, bias)) {
    return sign * std::ldexp(2.0 - std::ldexp(1.0, -f_bits), bias);
  }
  return q;
}

}  // namespace

ReferenceBackend::ReferenceBackend(const sparse::Csr& a,
                                   ReferenceArithmetic arithmetic)
    : label_("double"), matrix_(&a) {
  if (arithmetic == ReferenceArithmetic::kExact) return;
  // Global base = the matrix's largest exponent; the window hangs below
  // it, 52 fraction bits inside the window, flush outside.
  int global_max = 0;
  bool any = false;
  for (const double v : a.values()) {
    if (v == 0.0 || !std::isfinite(v)) continue;
    const int e = std::ilogb(v);
    if (!any || e > global_max) global_max = e;
    any = true;
  }
  core::QuantPolicy policy;
  policy.underflow = core::UnderflowMode::kFlushToZero;
  core::QuantTally tally;
  owned_ = a;
  for (double& v : owned_.mutable_values()) {
    v = core::quantize_value(v, global_max, kFeinbergExponentBits,
                             kFeinbergFractionBits, policy, &tally);
  }
  flushed_ = tally.flushed_to_zero;
  matrix_ = &owned_;
  label_ = "feinberg";
}

ReferenceBackend::ReferenceBackend(const sparse::Csr& a, TruncateSpec spec)
    : label_("truncated"),
      owned_(a),
      matrix_(&owned_),
      truncate_input_(spec) {
  for (double& v : owned_.mutable_values()) {
    v = truncate_fp(v, spec.exp_bits, spec.frac_bits);
  }
}

void ReferenceBackend::sweep(std::span<const double> x, std::size_t k,
                             std::span<double> y,
                             const core::SweepContext& ctx) {
  if (ctx.verdict != nullptr) ctx.verdict->reset();
  const std::size_t n_cols = cols();
  const std::size_t n_rows = rows();
  for (std::size_t j = 0; j < k; ++j) {
    std::span<const double> xj = x.subspan(j * n_cols, n_cols);
    if (truncate_input_) {
      scratch_.resize(n_cols);
      for (std::size_t i = 0; i < n_cols; ++i) {
        scratch_[i] = truncate_fp(xj[i], truncate_input_->exp_bits,
                                  truncate_input_->frac_bits);
      }
      xj = scratch_;
    }
    matrix_->spmv(xj, y.subspan(j * n_rows, n_rows));
  }
}

}  // namespace refloat::solve
