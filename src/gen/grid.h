// Structured-grid stencil generators — the building blocks of the Table V
// stand-in matrices (the SuiteSparse originals cannot ship with the repo, so
// each is reproduced as a structurally matched generator; see gen/suite.cc).
#pragma once

#include <vector>

#include "src/sparse/csr.h"

namespace refloat::gen {

using sparse::Index;

struct StencilTap {
  int dx = 0;
  int dy = 0;
  int dz = 0;
  double w = 0.0;
};

// A constant-coefficient stencil on an nx x ny x nz grid with Dirichlet
// boundaries (taps falling off the grid are dropped). Node order is
// x-fastest: index = x + nx * (y + ny * z).
struct StencilSpec {
  Index nx = 1;
  Index ny = 1;
  Index nz = 1;
  std::vector<StencilTap> taps;
};

// 2D 5-point Laplacian: center 4, axis neighbours -1.
StencilSpec laplace2d_5pt(Index nx, Index ny);
// 2D 9-point Laplacian: center 8, all eight neighbours -1.
StencilSpec laplace2d_9pt(Index nx, Index ny);
// 2D fourth-order 13-point Laplacian (5-point star of width 2 per axis).
StencilSpec laplace2d_13pt(Index nx, Index ny);
// 3D 7-point Laplacian: center 6, axis neighbours -1.
StencilSpec laplace3d_7pt(Index nx, Index ny, Index nz);
// 3D 27-point tensor mass stencil (trilinear FEM mass matrix weights
// [1 4 1]/6 per axis) — well-conditioned SPD, the crystm/qa8fm shape.
StencilSpec mass3d_27pt(Index nx, Index ny, Index nz);

// Emits the CSR row by row (no triplet sort). Zero-weight taps are dropped;
// two taps with the same (dx, dy, dz) throw std::invalid_argument.
sparse::Csr build_stencil(const StencilSpec& spec);

// Analytic extreme eigenvalues of the separable stencils above on the
// Dirichlet grid (used to calibrate a diagonal shift to a target condition
// number). Supports the 5pt/9pt/13pt/7pt Laplacians; mass matrices are
// estimated from the 1D tensor factors.
void stencil_eigen_range(const StencilSpec& spec, double* lambda_min,
                         double* lambda_max);

// Shift s such that (lambda_max + s) / (lambda_min + s) == kappa for the
// given stencil. kappa larger than the unshifted ratio yields a negative
// shift (still SPD as long as kappa is finite).
double shift_for_kappa(const StencilSpec& spec, double kappa);

}  // namespace refloat::gen
