// Table VIII: matrix memory overhead of refloat relative to double, per
// matrix (Fig. 4's storage model: per-element in-block indices + sign +
// e + f bits, per-block indices + 11-bit base; baseline COO double =
// 128 bits/nonzero).
//
// Paper anchors: ~0.173x for the banded matrices, 0.312x / 0.300x for the
// scattered thermomech pair (more blocks -> more per-block overhead),
// average 0.192x.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/util/stats.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Table VIII: memory overhead of refloat vs double ===\n\n");

  // Paper's published ratios, Table V order.
  const double paper[] = {0.173, 0.176, 0.173, 0.176, 0.173, 0.174,
                          0.173, 0.173, 0.312, 0.179, 0.300, 0.173};

  util::CsvWriter csv(results_dir() + "/table8.csv");
  csv.row({"id", "name", "overhead_vs_coo", "paper", "overhead_vs_csr",
           "blocks", "avg_nnz_per_block"});
  util::Table table({"ID", "name", "refloat/double", "(paper)",
                     "vs CSR double", "blocks", "nnz/block"});

  std::vector<double> ratios;
  std::size_t idx = 0;
  for (const gen::SuiteSpec& spec : gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    const core::RefloatMatrix& rf = bundle.rf;
    const double ratio = rf.memory_overhead_vs_coo();
    const double vs_csr = static_cast<double>(rf.storage_bits()) /
                          static_cast<double>(rf.baseline_csr_bits());
    const double per_block =
        static_cast<double>(bundle.a.nnz()) /
        static_cast<double>(rf.nonzero_blocks());
    ratios.push_back(ratio);
    table.add_row({std::to_string(spec.ss_id), spec.name,
                   util::fmt_f(ratio, 3), util::fmt_f(paper[idx], 3),
                   util::fmt_f(vs_csr, 3),
                   util::fmt_i(static_cast<long long>(rf.nonzero_blocks())),
                   util::fmt_f(per_block, 1)});
    csv.row({std::to_string(spec.ss_id), spec.name, util::fmt_g(ratio, 4),
             util::fmt_g(paper[idx], 4), util::fmt_g(vs_csr, 4),
             std::to_string(rf.nonzero_blocks()),
             util::fmt_g(per_block, 4)});
    ++idx;
  }
  table.print();
  std::printf("\n  average overhead: %.3fx (paper: 0.192x)\n",
              util::mean(ratios));
  std::printf("Series written to results/table8.csv\n");
  return 0;
}
