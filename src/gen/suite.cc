#include "src/gen/suite.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "src/core/format.h"
#include "src/gen/grid.h"
#include "src/gen/matrix_market.h"
#include "src/gen/wathen.h"
#include "src/util/log.h"
#include "src/util/random.h"

namespace refloat::gen {

namespace {

using sparse::Index;

// Table V order. Geometry choices: grid dimensions factor the published row
// counts exactly where an exact factorization exists (crystm01 = 13x15x25,
// crystm03 = 14x42x42, Dubcova2 = 255^2, shallow_water1 = 81920, wathen is
// structurally exact); otherwise the nearest grid is used (gridgena keeps
// the full 222x221 grid, +0.2% rows). Laplacian shifts are calibrated so the
// spectrum matches paper_kappa; mass matrices get a random diagonal
// similarity scaling (scale_bits octaves) that roughens the exponent
// spread the way measured FEM densities do.
//
// gridgena's b_norm is below tau = 1e-8: the published Table VI counts show
// it converging at the first residual check on every platform, which the
// harness reproduces by construction of the right-hand side.
constexpr SuiteSpec kSuite[] = {
    {"crystm01", 353, MatrixKind::kMass3d, 13, 15, 25, 2, 353, 1.0, 0,
     4875, 105339, 21.6, 2.28e2, 0, 1e-10},
    {"minsurfo", 1313, MatrixKind::kLaplace2d5, 202, 202, 1, 1, 1313, 1.0, 0,
     40806, 203622, 5.0, 8.11e1},
    {"crystm02", 354, MatrixKind::kMass3d, 19, 35, 21, 2, 354, 1.0, 0,
     13965, 322905, 23.1, 2.55e2, 0, 1e-10},
    {"shallow_water1", 2261, MatrixKind::kPairedRing, 81920, 1, 1, 0, 2261,
     1.0, 0, 81920, 327680, 4.0, 3.63},
    {"wathen100", 1288, MatrixKind::kWathen, 100, 100, 1, 0, 1288, 1.0, 16,
     30401, 471601, 15.5, 5.82e3},
    {"gridgena", 1311, MatrixKind::kLaplace2d9, 222, 221, 1, 0, 1311, 5e-9,
     0, 48962, 512084, 10.5, 8.32e5},
    {"wathen120", 1289, MatrixKind::kWathen, 120, 120, 1, 0, 1289, 1.0, 0,
     43681, 678721, 15.5, 2.58e3},
    // value_scale 1e-10: crystm entries sit at physical ~1e-10 magnitudes,
    // which is what makes Table I's exponent truncation catastrophic.
    {"crystm03", 355, MatrixKind::kMass3d, 14, 42, 42, 2, 355, 1.0, 0,
     24696, 583770, 23.6, 2.64e2, 0, 1e-10},
    {"thermomech_TC", 2257, MatrixKind::kScattered3d7, 47, 47, 46, 1, 2257,
     1.0, 0, 102158, 711558, 7.0, 1.22e2},
    // 9-point stencil: the 13-point one spans 8+ exponent positions per
    // block and falls out of the e = 3 offset window, which no measured
    // FEM stiffness matrix does. kappa_target 4.0e2: the published 1.04e4
    // lives in an eigenvalue tail the grid stand-in cannot carry through
    // f = 3 quantization; the roughening then multiplies the realized kappa
    // several-fold (table5's note on Dubcova2's kappa reading low).
    {"Dubcova2", 1848, MatrixKind::kLaplace2d9, 255, 255, 1, 1, 1848, 1.0,
     16, 65025, 1030225, 15.8, 1.04e4, 4.0e2},
    {"thermomech_dM", 2259, MatrixKind::kScattered3d7, 59, 59, 59, 1, 2259,
     1.0, 0, 204316, 1423116, 7.0, 1.25e2},
    {"qa8fm", 845, MatrixKind::kMass3d, 40, 41, 40, 1, 845, 1.0, 0,
     66127, 1660579, 25.1, 1.10e2},
};

// Random symmetric permutation shuffling indices within windows of n/2 —
// scatters blocks the way the thermomech node numbering does while staying
// undoable by RCM.
std::vector<Index> windowed_shuffle(Index n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Index> perm(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  const Index window = std::max<Index>(n / 2, 2);
  for (Index begin = 0; begin < n; begin += window) {
    const Index end = std::min(begin + window, n);
    for (Index i = end - 1; i > begin; --i) {
      const Index j =
          begin + static_cast<Index>(rng.below(
                      static_cast<std::uint64_t>(i - begin + 1)));
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
  }
  return perm;
}

}  // namespace

std::span<const SuiteSpec> suite() { return kSuite; }

const SuiteSpec* find_spec(int ss_id) {
  for (const SuiteSpec& spec : kSuite) {
    if (spec.ss_id == ss_id) return &spec;
  }
  return nullptr;
}

std::string default_data_dir() {
  const char* env = std::getenv("REFLOAT_DATA_DIR");
  return env != nullptr && env[0] != '\0' ? env : "data";
}

namespace {

// Random diagonal similarity D A D with d_i log-uniform over `scale_bits`
// octaves. Keeps SPD-ness and the sparsity pattern while making the entry
// values generic: constant-coefficient stencils quantize *coherently* (every
// identical entry rounds the same way, shifting the whole spectrum — the
// minsurfo diagonal 4.0995 rounds to 4.0 at f = 3 and the operator goes
// singular), which measured FEM matrices never do. One octave of roughening
// restores the incoherent-rounding behaviour of the originals at the cost of
// a bounded (<= 4x) kappa drift from the calibrated target.
sparse::Csr roughen(sparse::Csr a, int scale_bits, std::uint64_t seed) {
  if (scale_bits <= 0) return a;
  util::Rng rng(seed);
  std::vector<double> d(static_cast<std::size_t>(a.rows()));
  for (double& v : d) {
    v = std::exp2(-rng.uniform(0.0, static_cast<double>(scale_bits)));
  }
  a.scale_symmetric(d);
  return a;
}

}  // namespace

namespace {

sparse::Csr apply_value_scale(sparse::Csr a, double scale) {
  if (scale == 0.0 || scale == 1.0) return a;
  for (double& v : a.mutable_values()) v *= scale;
  return a;
}

}  // namespace

sparse::Csr build(const SuiteSpec& spec) {
  return apply_value_scale(build_unscaled(spec), spec.value_scale);
}

sparse::Csr build_unscaled(const SuiteSpec& spec) {
  switch (spec.kind) {
    case MatrixKind::kMass3d: {
      sparse::Csr a = build_stencil(mass3d_27pt(spec.nx, spec.ny, spec.nz));
      return roughen(std::move(a), spec.scale_bits, spec.seed);
    }
    case MatrixKind::kLaplace2d5: {
      const StencilSpec s = laplace2d_5pt(spec.nx, spec.ny);
      return roughen(
          build_stencil(s).shifted(shift_for_kappa(s, spec.calibration_kappa())),
          spec.scale_bits, spec.seed);
    }
    case MatrixKind::kLaplace2d9: {
      const StencilSpec s = laplace2d_9pt(spec.nx, spec.ny);
      return roughen(
          build_stencil(s).shifted(shift_for_kappa(s, spec.calibration_kappa())),
          spec.scale_bits, spec.seed);
    }
    case MatrixKind::kLaplace2d13: {
      const StencilSpec s = laplace2d_13pt(spec.nx, spec.ny);
      return roughen(
          build_stencil(s).shifted(shift_for_kappa(s, spec.calibration_kappa())),
          spec.scale_bits, spec.seed);
    }
    case MatrixKind::kLaplace3d7: {
      const StencilSpec s = laplace3d_7pt(spec.nx, spec.ny, spec.nz);
      return roughen(
          build_stencil(s).shifted(shift_for_kappa(s, spec.calibration_kappa())),
          spec.scale_bits, spec.seed);
    }
    case MatrixKind::kScattered3d7: {
      const StencilSpec s = laplace3d_7pt(spec.nx, spec.ny, spec.nz);
      const sparse::Csr a = roughen(
          build_stencil(s).shifted(shift_for_kappa(s, spec.calibration_kappa())),
          spec.scale_bits, spec.seed);
      return a.permuted_symmetric(windowed_shuffle(a.rows(), spec.seed));
    }
    case MatrixKind::kPairedRing: {
      // Row i couples to i +- 2 (-0.2) and to its pair partner i ^ 1
      // (-0.25), which sits between them.
      const Index n = spec.nx;
      return sparse::Csr::from_rows(n, n, [n](Index i, auto&& put) {
        if (i >= 2) put(i - 2, -0.2);
        if ((i & 1) == 1) put(i - 1, -0.25);
        put(i, 1.0);
        if ((i & 1) == 0 && i + 1 < n) put(i + 1, -0.25);
        if (i + 2 < n) put(i + 2, -0.2);
      });
    }
    case MatrixKind::kWathen:
      return wathen(spec.nx, spec.ny, spec.seed);
  }
  return {};
}

namespace {
constexpr char kMagic[8] = {'R', 'F', 'C', 'S', 'R', '1', '\n', '\0'};
}  // namespace

bool load_csr(const std::string& path, sparse::Csr* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  if (!in || rows < 0 || cols < 0 || nnz < 0) return false;
  // Bound the header by the file size before allocating from it: a damaged
  // count must read as a truncated file, not as a huge allocation.
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (ec || static_cast<std::uintmax_t>(rows) >= bytes / sizeof(Index) ||
      static_cast<std::uintmax_t>(nnz) >
          bytes / (sizeof(Index) + sizeof(double))) {
    return false;
  }
  std::vector<Index> row_ptr(static_cast<std::size_t>(rows) + 1);
  std::vector<Index> col_idx(static_cast<std::size_t>(nnz));
  std::vector<double> values(static_cast<std::size_t>(nnz));
  in.read(reinterpret_cast<char*>(row_ptr.data()),
          static_cast<std::streamsize>(row_ptr.size() * sizeof(Index)));
  in.read(reinterpret_cast<char*>(col_idx.data()),
          static_cast<std::streamsize>(col_idx.size() * sizeof(Index)));
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!in) return false;
  sparse::Csr loaded(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
  // A damaged index would hand every consumer out-of-bounds offsets.
  if (!loaded.canonical()) return false;
  *out = std::move(loaded);
  return true;
}

void save_csr(const std::string& path, const sparse::Csr& a) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  // Written under a name private to this thread, then renamed over `path`:
  // a reader (another process, or a daemon worker building another backend
  // of the same matrix) sees the old file or the whole new one, never a
  // file another writer is truncating.
  const std::string tmp =
      path + ".tmp" + std::to_string(::getpid()) + "-" +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(kMagic, sizeof(kMagic));
  const std::int64_t rows = a.rows();
  const std::int64_t cols = a.cols();
  const std::int64_t nnz = a.nnz();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  out.write(reinterpret_cast<const char*>(a.row_ptr().data()),
            static_cast<std::streamsize>(a.row_ptr().size() * sizeof(Index)));
  out.write(reinterpret_cast<const char*>(a.col_idx().data()),
            static_cast<std::streamsize>(a.col_idx().size() * sizeof(Index)));
  out.write(reinterpret_cast<const char*>(a.values().data()),
            static_cast<std::streamsize>(a.values().size() * sizeof(double)));
  out.close();
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

sparse::Csr load_or_build(const SuiteSpec& spec, const std::string& dir) {
  // A downloaded SuiteSparse original outranks the generated stand-in:
  // drop <name>.mtx next to the cache (crystm03.mtx, Dubcova2.mtx, ...)
  // and the suite serves the real matrix. A malformed file warns and falls
  // through to the stand-in rather than failing the run.
  const std::string mtx_path = dir + "/" + spec.name + ".mtx";
  if (std::filesystem::exists(mtx_path)) {
    sparse::Csr original;
    std::string mm_error;
    if (load_matrix_market(mtx_path, &original, &mm_error)) {
      RF_LOG_INFO("loaded %s from %s", spec.name, mtx_path.c_str());
      log_block_layout(spec.name, original, 1 << core::default_format().b);
      return original;
    }
    RF_LOG_WARN("ignoring %s: %s", mtx_path.c_str(), mm_error.c_str());
  }

  const std::string path = dir + "/" + spec.name + ".csr";
  sparse::Csr cached;
  if (load_csr(path, &cached)) return cached;
  RF_LOG_INFO("generating %s (cache miss: %s)", spec.name, path.c_str());
  sparse::Csr built = build(spec);
  save_csr(path, built);
  return built;
}

}  // namespace refloat::gen
