// The 12-matrix evaluation suite (paper Table V). SuiteSparse originals
// cannot ship with the repo, so each spec describes a structurally matched
// generated stand-in plus the paper's published statistics for side-by-side
// reporting. Generated matrices are cached on disk (see docs/DATA_FORMATS.md)
// under $REFLOAT_DATA_DIR (default ./data).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/sparse/csr.h"

namespace refloat::gen {

enum class MatrixKind {
  kMass3d,        // 27-point tensor mass stencil + random diagonal scaling
  kLaplace2d5,    // 5-point Laplacian, shift calibrated to paper_kappa
  kLaplace2d9,    // 9-point Laplacian, shift calibrated to paper_kappa
  kLaplace2d13,   // 13-point fourth-order Laplacian, calibrated shift
  kLaplace3d7,    // 7-point Laplacian, calibrated shift
  kScattered3d7,  // 7-point Laplacian, then scattered by a windowed random
                  // symmetric permutation (the thermomech block-scatter shape)
  kPairedRing,    // diag + partner + ring neighbours, 4 nnz/row, tiny kappa
  kWathen,        // structurally exact Wathen FEM mass matrix
};

struct SuiteSpec {
  const char* name = "";
  int ss_id = 0;  // SuiteSparse collection id of the original
  MatrixKind kind = MatrixKind::kMass3d;
  sparse::Index nx = 0;
  sparse::Index ny = 0;
  sparse::Index nz = 1;
  // kMass3d: log2 range of the random diagonal similarity scaling.
  int scale_bits = 0;
  std::uint64_t seed = 0;
  double b_norm = 1.0;  // ||b|| of the generated right-hand side
  int fv_override = 0;  // Table VII: nonzero -> use the fv=16 format
  // Published Table V statistics of the original matrix.
  long long paper_rows = 0;
  long long paper_nnz = 0;
  double paper_nnz_per_row = 0.0;
  double paper_kappa = 0.0;
  // Condition number the generator calibrates to; 0 means paper_kappa.
  // Used where the published kappa is dominated by an eigenvalue tail the
  // grid stand-in cannot reproduce (Dubcova2).
  double kappa_target = 0.0;
  // Uniform scaling of all entries (0 means 1.0). The crystm matrices carry
  // ~1e-10 physical units; Table I's exponent-truncation catastrophe only
  // exists at that absolute scale.
  double value_scale = 0.0;

  [[nodiscard]] double calibration_kappa() const {
    return kappa_target > 0.0 ? kappa_target : paper_kappa;
  }
};

// The 12 matrices in Table V order.
std::span<const SuiteSpec> suite();

// Lookup by SuiteSparse id; nullptr when unknown.
const SuiteSpec* find_spec(int ss_id);

// $REFLOAT_DATA_DIR or "data".
std::string default_data_dir();

// Generates the stand-in matrix for a spec (no caching).
sparse::Csr build(const SuiteSpec& spec);

// Same, before the spec's value_scale is applied (unit-scale entries).
sparse::Csr build_unscaled(const SuiteSpec& spec);

// Loads `dir/<name>.csr` if present and valid, else builds and caches it
// there.
sparse::Csr load_or_build(const SuiteSpec& spec, const std::string& dir);

// Binary CSR cache format (see docs/DATA_FORMATS.md). load_csr returns
// false (a cache miss) for a missing, truncated or non-canonical file.
bool load_csr(const std::string& path, sparse::Csr* out);
void save_csr(const std::string& path, const sparse::Csr& a);

}  // namespace refloat::gen
