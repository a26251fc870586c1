// Extension study: matrix ordering vs cluster demand.
//
// Fig. 8's worst cases (thermomech_TC/dM, Dubcova2) are *ordering*
// problems: their nonzeros scatter over far more 128x128 blocks than the
// chip has clusters, forcing rewrite rounds every SpMV. Reverse
// Cuthill-McKee reordering concentrates the pattern near the diagonal and
// collapses the demand — often back into the resident regime. This is a
// software fix the paper leaves on the table (its §V-C handles layout,
// not ordering).
#include <cstdio>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/arch/timing.h"
#include "src/gen/rcm.h"
#include "src/util/table.h"
#include "src/util/timer.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Extension: RCM reordering vs cluster demand (ReFloat "
              "config) ===\n\n");

  util::CsvWriter csv(results_dir() + "/ext_ordering.csv");
  csv.row({"matrix", "blocks", "blocks_rcm", "rounds", "rounds_rcm",
           "bandwidth", "bandwidth_rcm", "spmv_us", "spmv_rcm_us"});
  util::Table table({"matrix", "blocks", "RCM blocks", "rounds", "RCM",
                     "bandwidth", "RCM bandwidth", "SpMV", "SpMV (RCM)"});

  // The scattered matrices are the story; two banded ones for contrast.
  for (int id : {2257, 2259, 1848, 355, 1288}) {
    const gen::SuiteSpec* spec = gen::find_spec(id);
    const MatrixBundle bundle = load_bundle(*spec);
    const arch::AcceleratorConfig cfg = arch::refloat_config(bundle.format);

    const core::RefloatMatrix& before = bundle.rf;
    const auto perm = gen::rcm_permutation(bundle.a);
    const sparse::Csr reordered = bundle.a.permuted_symmetric(perm);
    const core::RefloatMatrix after(reordered, bundle.format);

    const arch::SpmvTiming t_before =
        arch::spmv_time(cfg, before.nonzero_blocks());
    const arch::SpmvTiming t_after =
        arch::spmv_time(cfg, after.nonzero_blocks());

    table.add_row(
        {spec->name,
         util::fmt_i(static_cast<long long>(before.nonzero_blocks())),
         util::fmt_i(static_cast<long long>(after.nonzero_blocks())),
         std::to_string(t_before.rounds), std::to_string(t_after.rounds),
         util::fmt_i(gen::bandwidth(bundle.a)),
         util::fmt_i(gen::bandwidth(reordered)),
         util::fmt_duration(t_before.seconds),
         util::fmt_duration(t_after.seconds)});
    csv.row({spec->name, std::to_string(before.nonzero_blocks()),
             std::to_string(after.nonzero_blocks()),
             std::to_string(t_before.rounds), std::to_string(t_after.rounds),
             std::to_string(gen::bandwidth(bundle.a)),
             std::to_string(gen::bandwidth(reordered)),
             util::fmt_g(t_before.seconds * 1e6, 5),
             util::fmt_g(t_after.seconds * 1e6, 5)});
  }
  table.print();
  std::printf("\nRCM turns the scattered matrices resident (rounds -> 1): "
              "the Fig. 8 sub-GPU regime for\nthermomech_* is an artifact "
              "of node numbering, removable in software before mapping.\n");
  return 0;
}
