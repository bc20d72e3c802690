// The evaluation's reference platforms over a plain CSR — exact FP64 (the
// GPU/double baseline), the Feinberg et al. [32] fixed-point baseline, and
// global FP truncation (Table I) — behind the same core::SweepBackend
// interface as the ReFloat views. They model no ReRAM: sweeps run no
// fault-injection or ABFT epilogue, and kind() is BackendKind::kReference,
// which the serve protocol does not accept.
//
// A k-RHS sweep applies the matrix column by column, so column j is
// bit-identical to a solo sweep of that column. One instance must not
// sweep concurrently from two threads (the truncated view keeps scratch).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/sparse/csr.h"

namespace refloat::solve {

// Global IEEE-style truncation (Table I): the matrix is truncated once to
// exp_bits/frac_bits; every sweep also truncates its input, as a solver
// holding all state in the narrow format would.
struct TruncateSpec {
  int exp_bits = 11;
  int frac_bits = 52;
};

enum class ReferenceArithmetic {
  kExact,  // FP64, the matrix borrowed as is
  // Matrix-global shared exponent, 52-bit fixed-point fractions, a
  // 2^6-position exponent window below the global maximum. Entries whose
  // exponent falls out of the window flush to zero — the mechanism behind
  // the paper's Feinberg non-convergence cases (per-block bases are
  // exactly what ReFloat adds).
  kFeinberg,
};

class ReferenceBackend final : public core::SweepBackend {
 public:
  // kExact borrows `a` for the backend's lifetime; kFeinberg keeps its own
  // quantized copy.
  explicit ReferenceBackend(
      const sparse::Csr& a,
      ReferenceArithmetic arithmetic = ReferenceArithmetic::kExact);
  // Truncated view: keeps its own truncated copy of `a`.
  ReferenceBackend(const sparse::Csr& a, TruncateSpec spec);
  ReferenceBackend(const ReferenceBackend&) = delete;
  ReferenceBackend& operator=(const ReferenceBackend&) = delete;

  [[nodiscard]] std::size_t rows() const override {
    return static_cast<std::size_t>(matrix_->rows());
  }
  [[nodiscard]] std::size_t cols() const override {
    return static_cast<std::size_t>(matrix_->cols());
  }
  [[nodiscard]] core::BackendKind kind() const override {
    return core::BackendKind::kReference;
  }
  // "double", "feinberg" or "truncated".
  [[nodiscard]] const char* label() const override { return label_; }

  void sweep(std::span<const double> x, std::size_t k, std::span<double> y,
             const core::SweepContext& ctx) override;

  // Entries the Feinberg quantization flushed to zero (0 for the others).
  [[nodiscard]] std::size_t flushed() const { return flushed_; }

 private:
  const char* label_;
  sparse::Csr owned_;
  const sparse::Csr* matrix_;
  std::optional<TruncateSpec> truncate_input_;
  std::size_t flushed_ = 0;
  std::vector<double> scratch_;
};

}  // namespace refloat::solve
