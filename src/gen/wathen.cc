#include "src/gen/wathen.h"

#include "src/util/random.h"

namespace refloat::gen {

sparse::Csr wathen(sparse::Index nx, sparse::Index ny, std::uint64_t seed) {
  using sparse::Index;
  // The two 4x4 blocks of the 8x8 serendipity element matrix (wathen.m).
  static const double e1[4][4] = {{6, -6, 2, -8},
                                  {-6, 32, -6, 20},
                                  {2, -6, 6, -6},
                                  {-8, 20, -6, 32}};
  static const double e2[4][4] = {{3, -8, 2, -6},
                                  {-8, 16, -8, 20},
                                  {2, -8, 3, -8},
                                  {-6, 20, -8, 16}};
  double em[8][8];
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      double v;
      if (r < 4 && c < 4) {
        v = e1[r][c];
      } else if (r < 4) {
        v = e2[r][c - 4];
      } else if (c < 4) {
        v = e2[c][r - 4];  // transposed block
      } else {
        v = e1[r - 4][c - 4];
      }
      em[r][c] = v / 45.0;
    }
  }

  const Index n = 3 * nx * ny + 2 * nx + 2 * ny + 1;
  util::Rng rng(seed);
  std::vector<sparse::Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nx * ny) * 64);
  for (Index j = 1; j <= ny; ++j) {
    for (Index i = 1; i <= nx; ++i) {
      // Node numbering of wathen.m (1-based, converted below).
      Index nn[8];
      nn[0] = 3 * j * nx + 2 * i + 2 * j + 1;
      nn[1] = nn[0] - 1;
      nn[2] = nn[1] - 1;
      nn[3] = (3 * j - 1) * nx + 2 * j + i - 1;
      nn[4] = 3 * (j - 1) * nx + 2 * i + 2 * j - 3;
      nn[5] = nn[4] + 1;
      nn[6] = nn[5] + 1;
      nn[7] = nn[3] + 1;
      // Element densities in [0.5, 100): the open-interval rand of wathen.m
      // lets rho approach 0 and inflates kappa far past the published
      // matrix; the floor keeps the stand-in in the published regime.
      const double rho = 0.5 + 99.5 * rng.uniform();
      for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
          triplets.push_back({nn[r] - 1, nn[c] - 1, rho * em[r][c]});
        }
      }
    }
  }
  // Stays on from_triplets, unlike the other generators: a coordinate
  // shared by several elements sums its 3-4 contributions in whatever
  // order std::sort (not stable) leaves them, so a direct build could not
  // reproduce those sums bit for bit.
  return sparse::Csr::from_triplets(n, n, std::move(triplets));
}

}  // namespace refloat::gen
