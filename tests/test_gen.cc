#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"
#include "src/gen/matrix_market.h"
#include "src/gen/rcm.h"
#include "src/gen/suite.h"
#include "src/gen/wathen.h"
#include "src/sparse/lanczos.h"
#include "src/sparse/vector_ops.h"
#include "src/util/random.h"

namespace refloat::gen {
namespace {

TEST(Grid, StencilShapeAndSymmetry) {
  const sparse::Csr a = build_stencil(laplace2d_5pt(10, 10));
  EXPECT_EQ(a.rows(), 100);
  // Interior rows have 5 entries, corners 3.
  EXPECT_EQ(a.nnz(), 5 * 100 - 4 * 10 /* boundary drops 2*(nx+ny) edges */);
  // Symmetric: A x . y == x . A y for a probe pair.
  util::Rng rng(3);
  std::vector<double> x(100);
  std::vector<double> y(100);
  for (double& v : x) v = rng.gaussian();
  for (double& v : y) v = rng.gaussian();
  std::vector<double> ax(100);
  std::vector<double> ay(100);
  a.spmv(x, ax);
  a.spmv(y, ay);
  EXPECT_NEAR(sparse::dot(ax, y), sparse::dot(x, ay), 1e-10);
}

TEST(Grid, ShiftCalibrationHitsTargetKappa) {
  const StencilSpec spec = laplace2d_5pt(24, 24);
  const double kappa = 50.0;
  const double shift = shift_for_kappa(spec, kappa);
  double lo = 0.0;
  double hi = 0.0;
  stencil_eigen_range(spec, &lo, &hi);
  EXPECT_NEAR((hi + shift) / (lo + shift), kappa, 1e-6 * kappa);
  EXPECT_GT(lo + shift, 0.0);  // still SPD
}

// The triplet-path build_stencil that the direct row build replaced, kept
// as the reference it must match bit for bit.
sparse::Csr reference_build_stencil(const StencilSpec& spec) {
  const Index n = spec.nx * spec.ny * spec.nz;
  std::vector<sparse::Triplet> triplets;
  for (Index z = 0; z < spec.nz; ++z) {
    for (Index y = 0; y < spec.ny; ++y) {
      for (Index x = 0; x < spec.nx; ++x) {
        const Index row = x + spec.nx * (y + spec.ny * z);
        for (const StencilTap& tap : spec.taps) {
          const Index tx = x + tap.dx;
          const Index ty = y + tap.dy;
          const Index tz = z + tap.dz;
          if (tx < 0 || tx >= spec.nx || ty < 0 || ty >= spec.ny || tz < 0 ||
              tz >= spec.nz) {
            continue;
          }
          triplets.push_back({row, tx + spec.nx * (ty + spec.ny * tz), tap.w});
        }
      }
    }
  }
  return sparse::Csr::from_triplets(n, n, std::move(triplets));
}

void expect_identical(const sparse::Csr& got, const sparse::Csr& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(got.canonical());
  EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()));
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t k = 0; k < got.values().size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[k]),
              std::bit_cast<std::uint64_t>(want.values()[k]))
        << "entry " << k;
  }
}

TEST(Grid, DirectStencilBuildMatchesTripletPath) {
  // 1-wide dimensions make taps of different (dx, dy, dz) share a linear
  // offset (13-point on nx = 1: dx = 1 and dy = 1 are both +1).
  const std::vector<std::pair<Index, Index>> grids2d = {
      {1, 1}, {1, 6}, {6, 1}, {2, 2}, {2, 7}, {3, 5}, {7, 4}, {16, 9}};
  for (const auto& [nx, ny] : grids2d) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny));
    for (const StencilSpec& spec :
         {laplace2d_5pt(nx, ny), laplace2d_9pt(nx, ny),
          laplace2d_13pt(nx, ny)}) {
      expect_identical(build_stencil(spec), reference_build_stencil(spec));
    }
  }
  const std::vector<std::array<Index, 3>> grids3d = {
      {1, 1, 1}, {1, 1, 5}, {1, 4, 1}, {3, 1, 1},
      {2, 3, 4}, {5, 5, 5}, {6, 2, 1}, {1, 3, 2}};
  for (const auto& [nx, ny, nz] : grids3d) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                 std::to_string(nz));
    for (const StencilSpec& spec :
         {laplace3d_7pt(nx, ny, nz), mass3d_27pt(nx, ny, nz)}) {
      expect_identical(build_stencil(spec), reference_build_stencil(spec));
    }
  }
}

TEST(Grid, StencilDropsZeroTapsAndRejectsDuplicates) {
  StencilSpec spec;
  spec.nx = 5;
  spec.ny = 4;
  spec.taps = {{0, 0, 0, 3.0},  {1, 0, 0, 0.0},  {-1, 0, 0, -0.0},
               {0, 1, 0, -1.5}, {0, -9, 0, 2.0}, {2, 1, 0, 0.25}};
  const sparse::Csr a = build_stencil(spec);
  expect_identical(a, reference_build_stencil(spec));
  for (const double v : a.values()) EXPECT_NE(v, 0.0);

  spec.taps.push_back({0, 1, 0, 1.0});  // repeats (0, 1, 0)
  EXPECT_THROW((void)build_stencil(spec), std::invalid_argument);
}

TEST(Wathen, SizeFormulaAndSpd) {
  const sparse::Csr a = wathen(6, 7, 42);
  EXPECT_EQ(a.rows(), 3 * 6 * 7 + 2 * 6 + 2 * 7 + 1);
  // SPD probe: x^T A x > 0 for a few random x.
  util::Rng rng(5);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  std::vector<double> ax(x.size());
  for (int probe = 0; probe < 4; ++probe) {
    for (double& v : x) v = rng.gaussian();
    a.spmv(x, ax);
    EXPECT_GT(sparse::dot(x, ax), 0.0);
  }
}

TEST(Rcm, RecoversBandedStructureAfterScatter) {
  const sparse::Csr banded = build_stencil(laplace2d_5pt(24, 24));
  // Scatter with a random symmetric permutation.
  util::Rng rng(9);
  std::vector<sparse::Index> scatter(static_cast<std::size_t>(banded.rows()));
  for (std::size_t i = 0; i < scatter.size(); ++i) {
    scatter[i] = static_cast<sparse::Index>(i);
  }
  for (std::size_t i = scatter.size() - 1; i > 0; --i) {
    std::swap(scatter[i], scatter[rng.below(i + 1)]);
  }
  const sparse::Csr scattered = banded.permuted_symmetric(scatter);
  ASSERT_GT(bandwidth(scattered), 4 * bandwidth(banded));

  const auto perm = rcm_permutation(scattered);
  const sparse::Csr recovered = scattered.permuted_symmetric(perm);
  EXPECT_LT(bandwidth(recovered), bandwidth(scattered) / 4);
  EXPECT_EQ(recovered.nnz(), banded.nnz());
}

TEST(Spectral, PermutationIsValid) {
  const sparse::Csr a = build_stencil(laplace2d_5pt(12, 12));
  const auto perm = spectral_permutation(a);
  ASSERT_EQ(perm.size(), static_cast<std::size_t>(a.rows()));
  std::vector<char> seen(perm.size(), 0);
  for (const sparse::Index p : perm) seen[static_cast<std::size_t>(p)] = 1;
  for (const char s : seen) EXPECT_EQ(s, 1);
}

TEST(Lanczos, FindsExtremesOfKnownSpectrum) {
  // Diagonal matrix with known extremes 0.5 and 8.
  std::vector<sparse::Triplet> triplets;
  const sparse::Index n = 64;
  for (sparse::Index i = 0; i < n; ++i) {
    triplets.push_back(
        {i, i, 0.5 + 7.5 * static_cast<double>(i) / static_cast<double>(n - 1)});
  }
  const sparse::Csr a = sparse::Csr::from_triplets(n, n, triplets);
  const sparse::SpectrumEstimate est = sparse::lanczos_extremes(a, 64, 17);
  EXPECT_NEAR(est.lambda_max, 8.0, 1e-6);
  EXPECT_NEAR(est.lambda_min, 0.5, 1e-6);
  EXPECT_NEAR(est.kappa(), 16.0, 1e-4);
}

// The Lanczos loop before its vector ops were fused (w = A v, then dot,
// then the update, then norm2, then a copy of v into v_prev), with the
// same Ritz extraction. This file is built without FP contraction, like
// lanczos.cc, so both round every product before its add.
int reference_sturm_count(const std::vector<double>& alpha,
                          const std::vector<double>& beta, double x) {
  int count = 0;
  double d = 1.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double off = i == 0 ? 0.0 : beta[i - 1];
    d = alpha[i] - x - off * off / (d == 0.0 ? 1e-300 : d);
    if (d < 0.0) ++count;
  }
  return count;
}

double reference_bisect(const std::vector<double>& alpha,
                        const std::vector<double>& beta, int index, double lo,
                        double hi) {
  for (int iter = 0;
       iter < 200 && hi - lo > 1e-14 * std::max(1.0, std::abs(hi)); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (reference_sturm_count(alpha, beta, mid) > index) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

sparse::SpectrumEstimate reference_lanczos(const sparse::Csr& a, int steps,
                                           std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(a.rows());
  const auto spmv = [&a](const std::vector<double>& x, std::vector<double>& y) {
    for (Index r = 0; r < a.rows(); ++r) {
      double acc = 0.0;
      for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
           k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        acc += a.values()[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(
                   a.col_idx()[static_cast<std::size_t>(k)])];
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
  };
  const auto dot = [](const std::vector<double>& x,
                      const std::vector<double>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
    return acc;
  };
  steps = std::min<int>(steps, static_cast<int>(n));
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.gaussian();
  const double v_norm = std::sqrt(dot(v, v));
  for (double& x : v) x /= v_norm;
  std::vector<double> v_prev(n, 0.0);
  std::vector<double> w(n);
  std::vector<double> alpha;
  std::vector<double> beta;
  double beta_prev = 0.0;
  for (int k = 0; k < steps; ++k) {
    spmv(v, w);
    const double al = dot(v, w);
    alpha.push_back(al);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] -= al * v[i] + beta_prev * v_prev[i];
    }
    const double b = std::sqrt(dot(w, w));
    if (b < 1e-13 * std::abs(al) || k + 1 == steps) break;
    beta.push_back(b);
    beta_prev = b;
    v_prev = v;
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / b;
  }
  double lo = alpha[0];
  double hi = alpha[0];
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double left = i > 0 ? beta[i - 1] : 0.0;
    const double right = i < beta.size() ? beta[i] : 0.0;
    lo = std::min(lo, alpha[i] - left - right);
    hi = std::max(hi, alpha[i] + left + right);
  }
  sparse::SpectrumEstimate est;
  est.lambda_min = reference_bisect(alpha, beta, 0, lo, hi);
  est.lambda_max = reference_bisect(
      alpha, beta, static_cast<int>(alpha.size()) - 1, lo, hi);
  return est;
}

TEST(Lanczos, FusedLoopMatchesReferenceBitForBit) {
  const sparse::Csr spd = build_stencil(laplace2d_5pt(23, 17)).shifted(0.1);
  const sparse::Csr indefinite =
      build_stencil(laplace2d_9pt(19, 21)).shifted(-4.0);
  // Two distinct eigenvalues: the Krylov space is exhausted at step 2, so
  // the beta < 1e-13 |alpha| exit is taken.
  std::vector<sparse::Triplet> two_level;
  for (Index i = 0; i < 40; ++i) {
    two_level.push_back({i, i, i < 15 ? 1.0 : 3.0});
  }
  const sparse::Csr degenerate = sparse::Csr::from_triplets(40, 40, two_level);
  for (const sparse::Csr* a : {&spd, &indefinite, &degenerate}) {
    for (const int steps : {1, 7, 96, 5000}) {
      SCOPED_TRACE(steps);
      const sparse::SpectrumEstimate got =
          sparse::lanczos_extremes(*a, steps, 0x9e0beULL);
      const sparse::SpectrumEstimate want =
          reference_lanczos(*a, steps, 0x9e0beULL);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lambda_min),
                std::bit_cast<std::uint64_t>(want.lambda_min));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lambda_max),
                std::bit_cast<std::uint64_t>(want.lambda_max));
    }
  }
  EXPECT_GT(sparse::lanczos_extremes(spd, 96, 1).lambda_min, 0.0);
  EXPECT_LT(sparse::lanczos_extremes(indefinite, 96, 1).lambda_min, 0.0);
}

TEST(Lanczos, NoStepsGiveAZeroEstimateAndNonSquareThrows) {
  const sparse::Csr a = build_stencil(laplace2d_5pt(4, 4));
  for (const int steps : {0, -3}) {
    const sparse::SpectrumEstimate est = sparse::lanczos_extremes(a, steps, 1);
    EXPECT_EQ(est.lambda_min, 0.0);
    EXPECT_EQ(est.lambda_max, 0.0);
  }
  const sparse::SpectrumEstimate empty =
      sparse::lanczos_extremes(sparse::Csr::from_triplets(0, 0, {}), 10, 1);
  EXPECT_EQ(empty.lambda_min, 0.0);
  EXPECT_EQ(empty.lambda_max, 0.0);
  const sparse::Csr wide = sparse::Csr::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW((void)sparse::lanczos_extremes(wide, 10, 1),
               std::invalid_argument);
}

TEST(Suite, SpecsAreComplete) {
  ASSERT_EQ(suite().size(), 12u);
  EXPECT_STREQ(find_spec(355)->name, "crystm03");
  EXPECT_STREQ(find_spec(1311)->name, "gridgena");
  EXPECT_EQ(find_spec(999999), nullptr);
  // Table VII: exactly wathen100 and Dubcova2 carry the fv=16 override.
  int overrides = 0;
  for (const SuiteSpec& spec : suite()) {
    if (spec.fv_override != 0) ++overrides;
  }
  EXPECT_EQ(overrides, 2);
  // gridgena's rhs is below tau by construction.
  EXPECT_LT(find_spec(1311)->b_norm, 1e-8);
}

// FNV-1a over (rows, cols) and the three CSR arrays: the bytes save_csr
// writes. The pinned values were taken from the triplet-path generators,
// so a changed hash means every cached data/<name>.csr is stale too.
std::uint64_t csr_hash(const sparse::Csr& a) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  const std::int64_t dims[2] = {a.rows(), a.cols()};
  mix(dims, sizeof(dims));
  mix(a.row_ptr().data(), a.row_ptr().size_bytes());
  mix(a.col_idx().data(), a.col_idx().size_bytes());
  mix(a.values().data(), a.values().size_bytes());
  return h;
}

TEST(Suite, DirectBuildersReproduceTripletPathStandIns) {
  // wathen100/120 still build through from_triplets, so they are not part
  // of this check.
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"crystm01", 0x69ca1ba5452a662cULL},
      {"minsurfo", 0x4dcc3057cb4cbf02ULL},
      {"crystm02", 0xf1a0bddc4a4f6850ULL},
      {"shallow_water1", 0x60ddda9dc57ff837ULL},
      {"gridgena", 0x2d306a49bbc7982aULL},
      {"crystm03", 0xad00d200ff24f50aULL},
      {"thermomech_TC", 0xff80025235d33029ULL},
      {"Dubcova2", 0x3119117642e303daULL},
      {"thermomech_dM", 0xc63c3940627f6450ULL},
      {"qa8fm", 0x58cb990ee13bcc44ULL},
  };
  ASSERT_EQ(pinned.size() + 2, suite().size());
  for (const auto& [name, hash] : pinned) {
    const SuiteSpec* spec = nullptr;
    for (const SuiteSpec& s : suite()) {
      if (name == s.name) spec = &s;
    }
    ASSERT_NE(spec, nullptr) << name;
    ASSERT_NE(spec->kind, MatrixKind::kWathen);
    EXPECT_EQ(csr_hash(build(*spec)), hash) << name;
  }
}

// The resident operand is packed (uint32 columns, fp32 value code) but
// decodes exactly: on every stand-in, at its Table VII format, to_csr()
// hashes (csr_hash) to the FP64 dequantized CSR an unpacked conversion
// produces, and the definiteness probe, which sweeps the packed operand,
// reads the pinned Ritz values bit for bit. Every stand-in's quantized
// values are fp32-exact.
TEST(Suite, PackedOperandKeepsDequantizedStandInsAndProbes) {
  struct Pin {
    const char* name;
    std::uint64_t hash;
    double lambda_min;
    double lambda_max;
  };
  const std::vector<Pin> pinned = {
      {"crystm01", 0xc8429511eb53038bULL,
       0x1.4faa09fbe8d1ep-41, 0x1.b81a26e152bbp-35},
      {"minsurfo", 0x1ae6072c339ccfdbULL,
       0x1.433aba50db18ep-5, 0x1.9445d9454c30ep+2},
      {"crystm02", 0x41ba796f104b7b81ULL,
       0x1.3d274c010127cp-41, 0x1.cb2163566b8d1p-35},
      {"shallow_water1", 0xbb0aa936689514b7ULL,
       0x1.601a47729d93ep-2, 0x1.a7f9c40c326fep+0},
      {"wathen100", 0x781184e8f0ffccbbULL,
       0x1.9f5e8d72ab4fep-2, 0x1.78ae909134883p+8},
      {"gridgena", 0xb13cd40c6b6f8d0eULL,
       -0x1.fbd0779c06b3fp-2, 0x1.6fe21c42493f6p+3},
      {"wathen120", 0x55b8efa6b51affcdULL,
       0x1.9b9ec23af8902p-2, 0x1.69870a7c05e72p+8},
      {"crystm03", 0x852a75cfbac0e751ULL,
       0x1.384c16e813116p-41, 0x1.d7f648038a942p-35},
      {"thermomech_TC", 0x2f14926d20576f94ULL,
       0x1.799fcd74a5656p-5, 0x1.206f406f93804p+3},
      {"Dubcova2", 0x91d9acbea93dd6ccULL,
       -0x1.3fb2a0197c547p-10, 0x1.3e7f0b441d431p+3},
      {"thermomech_dM", 0x9e6da175d0e0d1beULL,
       0x1.7f34ab24ac99cp-5, 0x1.1bcf0e79dfc3ep+3},
      {"qa8fm", 0x25d1db809f57ec04ULL,
       0x1.061b8af2fcce4p-6, 0x1.3ebe5881d341p-1},
  };
  ASSERT_EQ(pinned.size(), suite().size());
  for (const Pin& pin : pinned) {
    const SuiteSpec* spec = nullptr;
    for (const SuiteSpec& s : suite()) {
      if (std::string(pin.name) == s.name) spec = &s;
    }
    ASSERT_NE(spec, nullptr) << pin.name;
    const core::Format format = spec->fv_override != 0
                                    ? core::default_format_fv16()
                                    : core::default_format();
    const core::RefloatMatrix rf(build(*spec), format);
    EXPECT_EQ(rf.quantized().code(), sparse::ValueCode::kFp32) << pin.name;
    EXPECT_EQ(csr_hash(rf.quantized().to_csr()), pin.hash) << pin.name;
    const core::ConversionStats& probe = rf.probe_definiteness();
    EXPECT_EQ(probe.probe_lambda_min, pin.lambda_min) << pin.name;
    EXPECT_EQ(probe.probe_lambda_max, pin.lambda_max) << pin.name;
  }
}

TEST(Suite, CsrCacheRoundTrips) {
  const sparse::Csr a = build_stencil(laplace2d_5pt(9, 11)).shifted(0.25);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "refloat_test_cache")
          .string();
  const std::string path = dir + "/roundtrip.csr";
  std::filesystem::remove_all(dir);
  save_csr(path, a);
  sparse::Csr loaded;
  ASSERT_TRUE(load_csr(path, &loaded));
  EXPECT_EQ(loaded.rows(), a.rows());
  EXPECT_EQ(loaded.nnz(), a.nnz());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(loaded.values()[i], a.values()[i]);
  }
  EXPECT_FALSE(load_csr(dir + "/missing.csr", &loaded));
  std::filesystem::remove_all(dir);
}

TEST(Suite, CsrCacheRejectsNonCanonicalFiles) {
  // A damaged cache file with valid sizes must read as a cache miss, not
  // hand out-of-bounds indices to the conversion and the sweeps; then
  // load_or_build regenerates the matrix.
  SuiteSpec spec;
  spec.name = "tiny_damaged";
  spec.kind = MatrixKind::kLaplace2d5;
  spec.nx = 4;
  spec.ny = 4;
  spec.paper_kappa = 10.0;
  const sparse::Csr generated = build(spec);
  ASSERT_TRUE(generated.canonical());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "refloat_test_damaged")
          .string();
  const std::string path = dir + "/tiny_damaged.csr";
  std::filesystem::remove_all(dir);
  // 2x3, rows {0, 2} and {1}: each variant breaks one canonical rule.
  const auto damaged = [](std::vector<sparse::Index> row_ptr,
                          std::vector<sparse::Index> cols) {
    return sparse::Csr(2, 3, std::move(row_ptr), std::move(cols),
                       {1.0, 2.0, 3.0});
  };
  const std::vector<std::pair<std::string, sparse::Csr>> cases = {
      {"out-of-range column", damaged({0, 2, 3}, {0, 3, 1})},
      {"descending columns", damaged({0, 2, 3}, {2, 0, 1})},
      {"decreasing row_ptr", damaged({0, 3, 2}, {0, 2, 1})},
      {"row_ptr not from 0", damaged({1, 2, 3}, {0, 2, 1})},
  };
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    save_csr(path, bad);
    sparse::Csr loaded;
    EXPECT_FALSE(load_csr(path, &loaded));
    const sparse::Csr served = load_or_build(spec, dir);
    ASSERT_EQ(served.rows(), generated.rows());
    EXPECT_TRUE(served.canonical());
    EXPECT_EQ(std::vector<double>(served.values().begin(),
                                  served.values().end()),
              std::vector<double>(generated.values().begin(),
                                  generated.values().end()));
    // The regenerated file replaced the damaged one.
    EXPECT_TRUE(load_csr(path, &loaded));
  }
  sparse::Csr unused;
  save_csr(path, damaged({0, 2, 3}, {0, 2, 1}));
  EXPECT_TRUE(load_csr(path, &unused));  // the undamaged control
  {
    // A damaged nnz header reads as a truncated file, not as a huge
    // allocation.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::int64_t huge = std::int64_t{1} << 60;
    f.seekp(24);
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_FALSE(load_csr(path, &unused));
  std::filesystem::remove_all(dir);
}

namespace {

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "refloat_test_mm").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

}  // namespace

TEST(MatrixMarket, ParsesGeneralCoordinateReal) {
  const std::string path = write_temp("general.mtx",
                                      "%%MatrixMarket matrix coordinate real general\n"
                                      "% a comment\n"
                                      "\n"
                                      "3 3 4\n"
                                      "1 1 2.5\n"
                                      "2 3 -1.0\n"
                                      "3 1 4.0\n"
                                      "3 3 1.0\n");
  sparse::Csr a;
  std::string error;
  ASSERT_TRUE(load_matrix_market(path, &a, &error)) << error;
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 4);
  // Row 3 holds (3,1)=4 and (3,3)=1 in column order.
  EXPECT_EQ(a.row_ptr()[2], 2);
  EXPECT_EQ(a.row_ptr()[3], 4);
  EXPECT_EQ(a.values()[a.row_ptr()[2]], 4.0);
}

TEST(MatrixMarket, SymmetricMirrorsOffDiagonal) {
  const std::string path = write_temp("symmetric.mtx",
                                      "%%MatrixMarket matrix coordinate real symmetric\n"
                                      "3 3 3\n"
                                      "1 1 2.0\n"
                                      "2 1 -0.5\n"
                                      "3 3 1.5\n");
  sparse::Csr a;
  std::string error;
  ASSERT_TRUE(load_matrix_market(path, &a, &error)) << error;
  // The (2,1) entry mirrors to (1,2); diagonals do not duplicate.
  EXPECT_EQ(a.nnz(), 4);
  std::vector<double> x = {1.0, 0.0, 0.0};
  std::vector<double> y(3);
  a.spmv(x, y);
  EXPECT_EQ(y[0], 2.0);
  EXPECT_EQ(y[1], -0.5);  // the mirrored lower triangle
}

TEST(MatrixMarket, RejectsUnsupportedHeadersAndBadEntries) {
  sparse::Csr a;
  std::string error;
  EXPECT_FALSE(load_matrix_market(
      write_temp("complex.mtx",
                 "%%MatrixMarket matrix coordinate complex general\n1 1 1\n"
                 "1 1 1.0 0.0\n"),
      &a, &error));
  EXPECT_FALSE(load_matrix_market(
      write_temp("array.mtx",
                 "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"),
      &a, &error));
  EXPECT_FALSE(load_matrix_market(
      write_temp("range.mtx",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
                 "3 1 1.0\n"),
      &a, &error));
  EXPECT_FALSE(load_matrix_market(
      write_temp("truncated.mtx",
                 "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
                 "1 1 1.0\n"),
      &a, &error));
  EXPECT_FALSE(error.empty());
}

TEST(MatrixMarket, RejectsTruncatedAndNonNumericInput) {
  sparse::Csr a;
  std::string error;
  // Empty file.
  EXPECT_FALSE(load_matrix_market(write_temp("empty.mtx", ""), &a, &error));
  EXPECT_EQ(error, "empty file");
  // Banner only: the size line never arrives.
  EXPECT_FALSE(load_matrix_market(
      write_temp("headeronly.mtx",
                 "%%MatrixMarket matrix coordinate real general\n"),
      &a, &error));
  EXPECT_EQ(error, "missing size line");
  // Truncated banner: the format token is missing entirely.
  EXPECT_FALSE(load_matrix_market(
      write_temp("halfbanner.mtx", "%%MatrixMarket matrix\n2 2 1\n1 1 1.0\n"),
      &a, &error));
  // Non-numeric size line.
  EXPECT_FALSE(load_matrix_market(
      write_temp("badsize.mtx",
                 "%%MatrixMarket matrix coordinate real general\ntwo 2 1\n"),
      &a, &error));
  EXPECT_NE(error.find("malformed size line"), std::string::npos) << error;
  // Non-numeric entry value.
  EXPECT_FALSE(load_matrix_market(
      write_temp("badentry.mtx",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
                 "1 1 abc\n"),
      &a, &error));
  EXPECT_NE(error.find("malformed entry"), std::string::npos) << error;
  // Zero-based (out-of-range) indices: Matrix Market is 1-based.
  EXPECT_FALSE(load_matrix_market(
      write_temp("zerobased.mtx",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
                 "0 1 1.0\n"),
      &a, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(Suite, LoadOrBuildWarnsAndFallsThroughBadMtx) {
  // A damaged <name>.mtx override must not poison the suite: load_or_build
  // warns, ignores the file, and generates the stand-in as if it were
  // absent. A well-formed override, by contrast, wins over generation.
  SuiteSpec spec;
  spec.name = "tiny_fallthrough";
  spec.kind = MatrixKind::kLaplace2d5;
  spec.nx = 8;
  spec.ny = 8;
  spec.paper_kappa = 10.0;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "refloat_test_fallthrough")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream bad(dir + "/tiny_fallthrough.mtx", std::ios::trunc);
    bad << "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n";
  }
  const sparse::Csr generated = load_or_build(spec, dir);
  EXPECT_EQ(generated.rows(), 64);  // the 8x8 stand-in, not the 2x2 file

  {
    std::ofstream good(dir + "/tiny_fallthrough.mtx", std::ios::trunc);
    good << "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
            "1 1 1.0\n2 2 1.0\n";
  }
  const sparse::Csr overridden = load_or_build(spec, dir);
  EXPECT_EQ(overridden.rows(), 2);  // the valid override wins
  std::filesystem::remove_all(dir);
}

TEST(MatrixMarket, BlockLayoutStatsCountNonemptyBlocks) {
  // 5-point 16x12 stencil under 16x16 blocking: the diagonal plus the
  // off-diagonal neighbour bands touch a banded set of the 12x12 grid.
  const sparse::Csr a = build_stencil(laplace2d_5pt(16, 12)).shifted(0.1);
  const BlockLayoutStats s = block_layout_stats(a, 16);
  EXPECT_EQ(s.rows, 192);
  EXPECT_EQ(s.block_side, 16);
  EXPECT_EQ(s.grid_rows, 12);
  EXPECT_GT(s.nonempty_blocks, 0);
  EXPECT_LE(s.nonempty_blocks, 12 * 12);
  EXPECT_GT(s.mean_entries_per_block, 0.0);
  EXPECT_LE(s.block_fill, 1.0);
  // All nonzeros accounted for.
  EXPECT_EQ(static_cast<long long>(a.nnz()), s.nnz);
}

}  // namespace
}  // namespace refloat::gen
