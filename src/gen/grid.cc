#include "src/gen/grid.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace refloat::gen {

namespace {

StencilSpec make2d(Index nx, Index ny, std::vector<StencilTap> taps) {
  StencilSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = 1;
  spec.taps = std::move(taps);
  return spec;
}

}  // namespace

StencilSpec laplace2d_5pt(Index nx, Index ny) {
  return make2d(nx, ny,
                {{0, 0, 0, 4.0},
                 {1, 0, 0, -1.0},
                 {-1, 0, 0, -1.0},
                 {0, 1, 0, -1.0},
                 {0, -1, 0, -1.0}});
}

StencilSpec laplace2d_9pt(Index nx, Index ny) {
  std::vector<StencilTap> taps = {{0, 0, 0, 8.0}};
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      if (dx == 0 && dy == 0) continue;
      taps.push_back({dx, dy, 0, -1.0});
    }
  }
  return make2d(nx, ny, std::move(taps));
}

StencilSpec laplace2d_13pt(Index nx, Index ny) {
  // Fourth-order accurate Laplacian: 1D weights [-1/12, 4/3, -5/2, 4/3, -1/12]
  // applied per axis.
  std::vector<StencilTap> taps = {{0, 0, 0, 5.0}};
  const double w1 = -4.0 / 3.0;
  const double w2 = 1.0 / 12.0;
  for (const int d : {-2, -1, 1, 2}) {
    const double w = (d == 1 || d == -1) ? w1 : w2;
    taps.push_back({d, 0, 0, w});
    taps.push_back({0, d, 0, w});
  }
  return make2d(nx, ny, std::move(taps));
}

StencilSpec laplace3d_7pt(Index nx, Index ny, Index nz) {
  StencilSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = nz;
  spec.taps = {{0, 0, 0, 6.0},  {1, 0, 0, -1.0}, {-1, 0, 0, -1.0},
               {0, 1, 0, -1.0}, {0, -1, 0, -1.0}, {0, 0, 1, -1.0},
               {0, 0, -1, -1.0}};
  return spec;
}

StencilSpec mass3d_27pt(Index nx, Index ny, Index nz) {
  StencilSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = nz;
  // Trilinear FEM mass weights: [1 4 1]/6 per axis, tensor product.
  const double w1d[3] = {1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0};
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        spec.taps.push_back(
            {dx, dy, dz, w1d[dx + 1] * w1d[dy + 1] * w1d[dz + 1]});
      }
    }
  }
  return spec;
}

sparse::Csr build_stencil(const StencilSpec& spec) {
  const Index nx = spec.nx;
  const Index ny = spec.ny;
  const Index nz = spec.nz;
  const Index n = nx * ny * nz;
  for (std::size_t i = 0; i < spec.taps.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const StencilTap& a = spec.taps[i];
      const StencilTap& b = spec.taps[j];
      if (a.dx == b.dx && a.dy == b.dy && a.dz == b.dz) {
        throw std::invalid_argument("build_stencil: duplicate tap offset");
      }
    }
  }
  // A tap's column is row + its linear offset, so visiting the taps in
  // ascending offset emits every row's columns in ascending order. Two
  // taps that share an offset never both land on the grid in one row
  // (distinct grid points have distinct indices), so ties need no order.
  // Zero-weight taps are dropped, as from_triplets drops zero sums.
  struct Tap {
    Index offset;
    StencilTap tap;
  };
  std::vector<Tap> taps;
  // Exact size: a tap lands on the grid in prod(n_axis - |d_axis|) rows.
  const auto on_grid = [](Index extent, int d) {
    return std::max<Index>(0, extent - std::abs(d));
  };
  Index nnz = 0;
  for (const StencilTap& tap : spec.taps) {
    if (tap.w == 0.0) continue;
    taps.push_back({tap.dx + nx * (tap.dy + ny * tap.dz), tap});
    nnz += on_grid(nx, tap.dx) * on_grid(ny, tap.dy) * on_grid(nz, tap.dz);
  }
  std::sort(taps.begin(), taps.end(), [](const Tap& a, const Tap& b) {
    return a.offset < b.offset;
  });

  std::vector<Index> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> col_idx(static_cast<std::size_t>(nnz));
  std::vector<double> values(static_cast<std::size_t>(nnz));
  std::size_t k = 0;
  for (Index z = 0; z < nz; ++z) {
    for (Index y = 0; y < ny; ++y) {
      for (Index x = 0; x < nx; ++x) {
        const Index row = x + nx * (y + ny * z);
        for (const Tap& t : taps) {
          const Index tx = x + t.tap.dx;
          const Index ty = y + t.tap.dy;
          const Index tz = z + t.tap.dz;
          if (tx < 0 || tx >= nx || ty < 0 || ty >= ny || tz < 0 ||
              tz >= nz) {
            continue;  // Dirichlet: neighbours off the grid are dropped
          }
          col_idx[k] = row + t.offset;
          values[k] = t.tap.w;
          ++k;
        }
        row_ptr[static_cast<std::size_t>(row) + 1] = static_cast<Index>(k);
      }
    }
  }
  return sparse::Csr(n, n, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

void stencil_eigen_range(const StencilSpec& spec, double* lambda_min,
                         double* lambda_max) {
  // For symmetric constant stencils on the Dirichlet grid, the eigenvalues
  // are (to boundary-truncation accuracy for taps reaching past distance 1)
  //   lambda(i,j,k) = sum_t w_t cos(dx_t a) cos(dy_t b) cos(dz_t c)
  // with a = pi i/(nx+1) etc. Brute-force the index grid.
  // cos(d a) depends on one axis only, so it is tabulated per axis index
  // and tap ([i][t]) instead of being called three times per tap and node.
  const double pi = 3.14159265358979323846;
  const std::size_t taps = spec.taps.size();
  const auto axis_cos = [&](Index extent, int StencilTap::*d) {
    std::vector<double> table(static_cast<std::size_t>(extent) * taps);
    for (Index i = 1; i <= extent; ++i) {
      const double a =
          pi * static_cast<double>(i) / static_cast<double>(extent + 1);
      for (std::size_t t = 0; t < taps; ++t) {
        table[static_cast<std::size_t>(i - 1) * taps + t] =
            std::cos(spec.taps[t].*d * a);
      }
    }
    return table;
  };
  const std::vector<double> cos_x = axis_cos(spec.nx, &StencilTap::dx);
  const std::vector<double> cos_y = axis_cos(spec.ny, &StencilTap::dy);
  const std::vector<double> cos_z = axis_cos(spec.nz, &StencilTap::dz);
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(spec.nx); ++i) {
    const double* cx = cos_x.data() + i * taps;
    for (std::size_t j = 0; j < static_cast<std::size_t>(spec.ny); ++j) {
      const double* cy = cos_y.data() + j * taps;
      for (std::size_t k = 0; k < static_cast<std::size_t>(spec.nz); ++k) {
        const double* cz = cos_z.data() + k * taps;
        double lambda = 0.0;
        for (std::size_t t = 0; t < taps; ++t) {
          lambda += spec.taps[t].w * cx[t] * cy[t] * cz[t];
        }
        if (first || lambda < lo) lo = lambda;
        if (first || lambda > hi) hi = lambda;
        first = false;
      }
    }
  }
  *lambda_min = lo;
  *lambda_max = hi;
}

double shift_for_kappa(const StencilSpec& spec, double kappa) {
  double lo = 0.0;
  double hi = 0.0;
  stencil_eigen_range(spec, &lo, &hi);
  return (hi - kappa * lo) / (kappa - 1.0);
}

}  // namespace refloat::gen
