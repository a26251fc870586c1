#include "src/core/refloat_matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/band_scatter.h"
#include "src/core/simd.h"
#include "src/sparse/lanczos.h"

namespace refloat::core {

namespace {

int bits_for_spread(int spread) {
  int bits = 0;
  while ((1 << bits) < spread) ++bits;
  return bits;
}

}  // namespace

RefloatMatrix::RefloatMatrix(const sparse::Csr& a, const Format& format,
                             const QuantPolicy& policy)
    : format_(format),
      policy_(policy),
      original_nnz_(a.nnz()),
      rows_(a.rows()),
      cols_(a.cols()) {
  if (!a.canonical()) {
    throw std::invalid_argument(
        "RefloatMatrix: input CSR is not canonical (row_ptr must run from 0 "
        "to nnz without decreasing; columns must strictly ascend within "
        "[0, cols) in every row)");
  }
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const auto at = [](sparse::Index i) { return static_cast<std::size_t>(i); };

  double err_sq = 0.0;
  double ref_sq = 0.0;
  QuantTally tally;
  // The resident operand is emitted row by row straight into its packed
  // arrays, dropping entries that quantized to zero; the builder checks the
  // column range before it allocates and picks the value code.
  sparse::PackedCsr::Builder packed(rows_, cols_, values.size());
  const auto emit = [&](sparse::Index c, double q) {
    if (q != 0.0) packed.push(c, q);
  };

  if (format_.b == 0) {
    // Scalar format: each value quantizes independently (IEEE semantics with
    // e exponent / f fraction bits); there is no block structure.
    for (sparse::Index r = 0; r < rows_; ++r) {
      for (sparse::Index k = row_ptr[at(r)]; k < row_ptr[at(r) + 1]; ++k) {
        const double v = values[at(k)];
        const double q = quantize_scalar(v, format_.e, format_.f, &tally);
        err_sq += (v - q) * (v - q);
        ref_sq += v * v;
        emit(col_idx[at(k)], q);
      }
      packed.end_row();
    }
  } else {
    // Stream one band of 2^b rows (one grid block-row) at a time. The band's
    // entries are grouped by block column; blocks are visited in ascending
    // block column, so blocks, err_sq and ref_sq all follow (block-row,
    // block-column, entry) order. Quantized values go back to their input
    // slot, and the band is then appended to the packed operand in row
    // order.
    const int b = format_.b;
    const sparse::Index side = sparse::Index{1} << b;
    BandScatter band(b, cols_);
    std::vector<double> band_q;
    index_.block_ptr.push_back(0);
    for (sparse::Index r0 = 0; r0 < rows_; r0 += side) {
      const sparse::Index r1 = std::min(r0 + side, rows_);
      band.scatter(sparse::row_arrays(a), r0, r1);
      band_q.resize(at(row_ptr[at(r1)] - row_ptr[at(r0)]));
      const std::span<const sparse::Index> touched = band.block_cols();
      for (std::size_t i = 0; i < touched.size(); ++i) {
        const std::span<const double> block = band.run_values(i);
        const std::span<const BandScatter::Slot> slots = band.run_slots(i);
        int min_e = 0;
        int max_e = 0;
        bool any = false;
        for (const double v : block) {
          if (v == 0.0 || !std::isfinite(v)) continue;
          const int e = std::ilogb(v);
          if (!any) {
            min_e = max_e = e;
            any = true;
          } else {
            min_e = std::min(min_e, e);
            max_e = std::max(max_e, e);
          }
        }
        if (any) {
          stats_.locality_bits = std::max(stats_.locality_bits,
                                          bits_for_spread(max_e - min_e + 1));
        }

        const int base = select_block_base(block, format_.e, policy_);
        index_.block_col.push_back(static_cast<std::int32_t>(touched[i]));
        index_.base.push_back(static_cast<std::int16_t>(base));
        for (std::size_t p = 0; p < block.size(); ++p) {
          const double v = block[p];
          const double q = quantize_value(v, base, format_.e, format_.f,
                                          policy_, &tally);
          err_sq += (v - q) * (v - q);
          ref_sq += v * v;
          band_q[slots[p].offset] = q;
        }
      }
      index_.block_ptr.push_back(index_.block_col.size());

      const sparse::Index k0 = row_ptr[at(r0)];
      for (sparse::Index r = r0; r < r1; ++r) {
        for (sparse::Index k = row_ptr[at(r)]; k < row_ptr[at(r) + 1]; ++k) {
          emit(col_idx[at(k)], band_q[at(k - k0)]);
        }
        packed.end_row();
      }
    }
  }

  stats_.values = tally.values;
  stats_.overflowed = tally.overflowed;
  stats_.underflowed = tally.underflowed;
  stats_.flushed_to_zero = tally.flushed_to_zero;
  stats_.rel_error_fro = ref_sq > 0.0 ? std::sqrt(err_sq / ref_sq) : 0.0;
  quantized_ = packed.finish();
}

long long RefloatMatrix::storage_bits() const {
  const long long nnz = original_nnz_;
  if (format_.b == 0) {
    // Scalar COO: two 32-bit coordinates + sign + e + f per nonzero.
    return nnz * (64 + 1 + format_.e + format_.f);
  }
  const sparse::Index side = sparse::Index{1} << format_.b;
  const sparse::Index grid = std::max<sparse::Index>(
      (rows_ + side - 1) / side, (cols_ + side - 1) / side);
  return nnz * storage_bits_per_value(format_) +
         static_cast<long long>(nonzero_blocks()) *
             storage_bits_per_block(format_, grid);
}

long long RefloatMatrix::baseline_coo_bits() const {
  return static_cast<long long>(original_nnz_) * 128;
}

long long RefloatMatrix::baseline_csr_bits() const {
  return static_cast<long long>(original_nnz_) * (32 + 64) +
         (static_cast<long long>(rows_) + 1) * 32;
}

double RefloatMatrix::memory_overhead_vs_coo() const {
  return static_cast<double>(storage_bits()) /
         static_cast<double>(baseline_coo_bits());
}

void RefloatMatrix::quantize_vector(std::span<const double> x,
                                    std::span<double> out) const {
  QuantTally tally;
  if (format_.b == 0) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      out[i] = quantize_scalar(x[i], format_.ev, format_.fv, &tally);
    }
    return;
  }
  const std::size_t side = std::size_t{1} << format_.b;
  for (std::size_t begin = 0; begin < x.size(); begin += side) {
    const std::size_t end = std::min(begin + side, x.size());
    const std::span<const double> segment = x.subspan(begin, end - begin);
    const int base = select_block_base(segment, format_.ev, policy_);
    quantize_span(segment, base, format_.ev, format_.fv, policy_,
                  out.subspan(begin, end - begin));
  }
}

void RefloatMatrix::quantize_vectors(std::span<const double> x,
                                     std::size_t k,
                                     std::span<double> out) const {
  if (k == 0) return;
  const bool max_anchor = policy_.base == BaseMode::kMaxAnchor;
  // Element-wise (b = 0) or one contiguous column off the tile kernel's
  // policy: the layout does not matter.
  if (format_.b == 0 || (k == 1 && !max_anchor)) {
    quantize_vector(x, out);
    return;
  }
  const std::size_t n = x.size() / k;
  const std::size_t side = std::size_t{1} << format_.b;
  if (!max_anchor) {
    // Gather each column's segment and take quantize_vector's path.
    std::vector<double> segment(2 * side);
    const std::span<double> in(segment.data(), side);
    const std::span<double> quantized(segment.data() + side, side);
    for (std::size_t begin = 0; begin < n; begin += side) {
      const std::size_t rows = std::min(side, n - begin);
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t i = 0; i < rows; ++i) {
          in[i] = x[(begin + i) * k + j];
        }
        const int base =
            select_block_base(in.first(rows), format_.ev, policy_);
        quantize_span(in.first(rows), base, format_.ev, format_.fv, policy_,
                      quantized.first(rows));
        for (std::size_t i = 0; i < rows; ++i) {
          out[(begin + i) * k + j] = quantized[i];
        }
      }
    }
    return;
  }
  const QuantTileArgs args{.e_bits = format_.ev, .f_bits = format_.fv,
                           .policy = &policy_};
  const SweepKernels& kernels = sweep_kernels();
  for (std::size_t begin = 0; begin < n; begin += side) {
    const std::size_t rows = std::min(side, n - begin);
    kernels.quantize_tile(x.data() + begin * k, rows, k, args,
                          out.data() + begin * k);
  }
}

const ConversionStats& RefloatMatrix::probe_definiteness(int steps) const {
  if (stats_.probe_steps >= steps || rows_ != cols_ || rows_ == 0) {
    return stats_;
  }
  const sparse::SpectrumEstimate est =
      sparse::lanczos_extremes(quantized_, steps, /*seed=*/0x9e0beULL);
  stats_.probe_steps = steps;
  stats_.probe_lambda_min = est.lambda_min;
  stats_.probe_lambda_max = est.lambda_max;
  return stats_;
}

}  // namespace refloat::core
