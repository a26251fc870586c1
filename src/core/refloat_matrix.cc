#include "src/core/refloat_matrix.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/core/sweep_backend.h"
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
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  double err_sq = 0.0;
  double ref_sq = 0.0;
  QuantTally tally;
  std::vector<sparse::Triplet> quantized_triplets;
  quantized_triplets.reserve(values.size());

  if (format_.b == 0) {
    // Scalar format: each value quantizes independently (IEEE semantics with
    // e exponent / f fraction bits); there is no block structure.
    for (sparse::Index r = 0; r < rows_; ++r) {
      for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const double v = values[static_cast<std::size_t>(k)];
        const double q = quantize_scalar(v, format_.e, format_.f, &tally);
        err_sq += (v - q) * (v - q);
        ref_sq += v * v;
        if (q != 0.0) {
          quantized_triplets.push_back(
              {r, col_idx[static_cast<std::size_t>(k)], q});
        }
      }
    }
  } else {
    // Bucket nonzeros into 2^b x 2^b blocks (ordered map keeps blocks in
    // (brow, bcol) order, which the plan's ordering contract and the
    // schedule sim rely on).
    struct Raw {
      std::int32_t r, c;
      double v;
    };
    std::map<std::pair<sparse::Index, sparse::Index>, std::vector<Raw>>
        buckets;
    const int b = format_.b;
    for (sparse::Index r = 0; r < rows_; ++r) {
      for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const sparse::Index c = col_idx[static_cast<std::size_t>(k)];
        buckets[{r >> b, c >> b}].push_back(
            {static_cast<std::int32_t>(r & ((sparse::Index{1} << b) - 1)),
             static_cast<std::int32_t>(c & ((sparse::Index{1} << b) - 1)),
             values[static_cast<std::size_t>(k)]});
      }
    }

    SpmvPlanBuilder builder;
    std::vector<double> block_values;
    for (auto& [key, raws] : buckets) {
      block_values.clear();
      int min_e = 0;
      int max_e = 0;
      bool any = false;
      for (const Raw& raw : raws) {
        block_values.push_back(raw.v);
        if (raw.v == 0.0 || !std::isfinite(raw.v)) continue;
        const int e = std::ilogb(raw.v);
        if (!any) {
          min_e = max_e = e;
          any = true;
        } else {
          min_e = std::min(min_e, e);
          max_e = std::max(max_e, e);
        }
      }
      if (any) {
        stats_.locality_bits = std::max(
            stats_.locality_bits, bits_for_spread(max_e - min_e + 1));
      }

      // Row-major, ascending columns within a row: the plan order whose
      // per-row addend sequence the value sweeps reproduce from the sorted
      // quantized CSR (SpmvPlan::valid). Sorted CSR input already has it.
      const auto row_major = [](const Raw& p, const Raw& q) {
        return p.r != q.r ? p.r < q.r : p.c < q.c;
      };
      if (!std::is_sorted(raws.begin(), raws.end(), row_major)) {
        std::sort(raws.begin(), raws.end(), row_major);
      }
      const sparse::Index row0 = key.first << b;
      const sparse::Index col0 = key.second << b;
      const int base = select_block_base(block_values, format_.e, policy_);
      builder.begin_block(row0, col0, base);
      for (const Raw& raw : raws) {
        const double q = quantize_value(raw.v, base, format_.e, format_.f,
                                        policy_, &tally);
        err_sq += (raw.v - q) * (raw.v - q);
        ref_sq += raw.v * raw.v;
        if (q != 0.0) {
          builder.push_entry(raw.r, raw.c, q);
          quantized_triplets.push_back({row0 + raw.r, col0 + raw.c, q});
        }
      }
    }
    plan_ = builder.finish(rows_, cols_, b);
  }

  stats_.values = tally.values;
  stats_.overflowed = tally.overflowed;
  stats_.underflowed = tally.underflowed;
  stats_.flushed_to_zero = tally.flushed_to_zero;
  stats_.rel_error_fro = ref_sq > 0.0 ? std::sqrt(err_sq / ref_sq) : 0.0;
  quantized_ =
      sparse::Csr::from_triplets(rows_, cols_, std::move(quantized_triplets));
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
         static_cast<long long>(plan_.num_blocks()) *
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

void RefloatMatrix::spmv_refloat(std::span<const double> x,
                                 std::span<double> y,
                                 std::vector<double>& scratch) const {
  detail::sweep_value_single(*this, nullptr, x, y, scratch);
}

void RefloatMatrix::spmv_refloat_multi(std::span<const double> x,
                                       std::size_t k, std::span<double> y,
                                       MultiSpmvScratch& scratch) const {
  detail::sweep_value_multi(*this, nullptr, x, k, y, scratch);
}

void RefloatMatrix::spmv_refloat_noisy(std::span<const double> x,
                                       std::span<double> y,
                                       std::vector<double>& scratch,
                                       double sigma, std::uint64_t seed,
                                       std::uint64_t sequence) const {
  detail::sweep_noisy_single(*this, nullptr, x, y, scratch, sigma, seed,
                             sequence);
}

void RefloatMatrix::spmv_refloat_noisy_multi(
    std::span<const double> x, std::size_t k, std::span<double> y,
    MultiSpmvScratch& scratch, double sigma,
    std::span<const std::uint64_t> seeds,
    std::span<const std::uint64_t> sequences) const {
  detail::sweep_noisy_multi(*this, nullptr, x, k, y, scratch, sigma, seeds,
                            sequences);
}

void RefloatMatrix::spmv_refloat_tiled(const TiledPlan& tiled,
                                       std::span<const double> x,
                                       std::span<double> y,
                                       std::vector<double>& scratch) const {
  detail::sweep_value_single(*this, &tiled, x, y, scratch);
}

void RefloatMatrix::spmv_refloat_noisy_tiled(
    const TiledPlan& tiled, std::span<const double> x, std::span<double> y,
    std::vector<double>& scratch, double sigma, std::uint64_t seed,
    std::uint64_t sequence) const {
  detail::sweep_noisy_single(*this, &tiled, x, y, scratch, sigma, seed,
                             sequence);
}

const ConversionStats& RefloatMatrix::probe_definiteness(int steps) const {
  if (stats_.probe_steps >= steps || rows_ != cols_ || rows_ == 0) {
    return stats_;
  }
  const sparse::SpectrumEstimate est = sparse::lanczos_extremes(
      [this](std::span<const double> v, std::span<double> w) {
        quantized_.spmv(v, w);
      },
      static_cast<std::size_t>(rows_), steps, /*seed=*/0x9e0beULL);
  stats_.probe_steps = steps;
  stats_.probe_lambda_min = est.lambda_min;
  stats_.probe_lambda_max = est.lambda_max;
  return stats_;
}

}  // namespace refloat::core
