// Figure 3: (a) cycle count vs exponent bits, (b) cycle count vs fraction
// bits, (c) crossbar count vs matrix exponent/fraction bits — analytic
// sweeps of Eq. (2)/(3) — and (d) the exponent-bit locality of the 12
// matrices at 128x128 block granularity.
//
// Paper anchors: FP64 needs 8404 crossbars and 4201 cycles; crossbar count
// grows exponentially in e_M and linearly in f_M; every matrix's per-block
// locality sits far below FP64's 11 bits, and ReFloat maps them all with
// e = 3.
#include <cstdio>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/util/table.h"

namespace refloat::bench {
namespace {

void sweep_cycles(util::CsvWriter& csv) {
  std::printf("(a) cycles vs exponent bits (f = fv = 3):\n");
  util::Table ta({"ev \\ eM", "1", "2", "3", "4", "5", "6"});
  for (int ev = 1; ev <= 6; ++ev) {
    std::vector<std::string> row = {std::to_string(ev)};
    for (int em = 1; em <= 6; ++em) {
      const core::Format fmt{.b = 7, .e = em, .f = 3, .ev = ev, .fv = 3};
      const long t = arch::cycles_per_block_mvm(fmt);
      row.push_back(std::to_string(t));
      csv.row({"cycles_vs_exp", std::to_string(ev), std::to_string(em),
               std::to_string(t)});
    }
    ta.add_row(row);
  }
  ta.print();

  std::printf("\n(b) cycles vs fraction bits (e = ev = 3):\n");
  util::Table tb({"fv \\ fM", "4", "12", "20", "28", "36", "44", "52"});
  for (int fv = 4; fv <= 52; fv += 8) {
    std::vector<std::string> row = {std::to_string(fv)};
    for (int fm = 4; fm <= 52; fm += 8) {
      const core::Format fmt{.b = 7, .e = 3, .f = fm, .ev = 3, .fv = fv};
      const long t = arch::cycles_per_block_mvm(fmt);
      row.push_back(std::to_string(t));
      csv.row({"cycles_vs_frac", std::to_string(fv), std::to_string(fm),
               std::to_string(t)});
    }
    tb.add_row(row);
  }
  tb.print();
}

void sweep_crossbars(util::CsvWriter& csv) {
  std::printf("\n(c) crossbars vs matrix exponent/fraction bits:\n");
  util::Table tc({"fM \\ eM", "1", "3", "5", "7", "9", "11"});
  for (int fm = 4; fm <= 52; fm += 16) {
    std::vector<std::string> row = {std::to_string(fm)};
    for (int em = 1; em <= 11; em += 2) {
      const core::Format fmt{.b = 7, .e = em, .f = fm, .ev = em, .fv = fm};
      const long c = arch::crossbars_per_cluster(fmt);
      row.push_back(util::fmt_i(c));
      csv.row({"xbars", std::to_string(fm), std::to_string(em),
               std::to_string(c)});
    }
    tc.add_row(row);
  }
  tc.print();
  std::printf("  anchors: FP64(e=11,f=52) -> %ld crossbars, %ld cycles "
              "(paper: 8404, 4201)\n",
              arch::crossbars_per_cluster(arch::fp64_reram_config().format),
              arch::cycles_per_block_mvm(arch::fp64_reram_config().format));
}

void locality(util::CsvWriter& csv) {
  std::printf("\n(d) exponent-bit locality at 128x128 blocks "
              "(FP64 budget = 11, ReFloat maps with e = 3):\n");
  util::Table td({"ID", "matrix", "FP64", "locality", "ReFloat",
                  "offsets clamped"});
  for (const gen::SuiteSpec& spec : gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    const auto& stats = bundle.rf.stats();
    const double clamped_pct =
        100.0 *
        static_cast<double>(stats.overflowed + stats.underflowed) /
        static_cast<double>(stats.values);
    td.add_row({std::to_string(spec.ss_id), spec.name, "11",
                std::to_string(stats.locality_bits), "3",
                util::fmt_f(clamped_pct, 2) + "%"});
    csv.row({"locality", spec.name, std::to_string(stats.locality_bits),
             util::fmt_f(clamped_pct, 4)});
  }
  td.print();
}

}  // namespace
}  // namespace refloat::bench

int main() {
  using namespace refloat::bench;
  std::printf("=== Figure 3: cost curves (Eq. 2/3) and exponent locality "
              "===\n\n");
  refloat::util::CsvWriter csv(results_dir() + "/fig3.csv");
  csv.row({"series", "x1", "x2", "value"});
  sweep_cycles(csv);
  sweep_crossbars(csv);
  locality(csv);
  std::printf("\nSeries written to results/fig3.csv\n");
  return 0;
}
