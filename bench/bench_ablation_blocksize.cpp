// Ablation: block size 2^b (= crossbar dimension).
//
// b trades exponent locality against parallelism and per-block overhead:
// smaller blocks see narrower exponent spreads (less quantization error,
// fewer iterations) but need more clusters per matrix and more per-block
// metadata; larger crossbars amortize overhead but widen the spread the
// e-bit window must cover. The paper fixes b = 7 (128x128, Table IV);
// this sweep shows why that is a reasonable middle.
#include <cstdio>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/solvers/batched.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Ablation: block size 2^b on crystm01 (CG, "
              "ReFloat(b,3,3)(3,8)) ===\n\n");

  const gen::SuiteSpec* spec = gen::find_spec(353);
  const sparse::Csr a = gen::load_or_build(*spec, gen::default_data_dir());
  const std::vector<double> b_vec = solve::make_rhs(a, spec->b_norm);
  solve::SolveOptions opts = evaluation_options();

  util::CsvWriter csv(results_dir() + "/ablation_blocksize.csv");
  csv.row({"b", "side", "blocks", "locality_bits", "conv_error", "overhead",
           "iterations", "status"});
  util::Table table({"b", "side", "blocks", "locality", "conv err",
                     "mem overhead", "iters", "status"});

  for (int b = 4; b <= 9; ++b) {
    core::Format fmt = core::default_format();
    fmt.b = b;
    const core::RefloatMatrix rf(a, fmt);
    const auto backend = core::make_value_backend(rf);
    solve::BackendMultiOperator op(*backend, 1);
    const solve::SolveResult res =
        solve::cg_multi(op, b_vec, 1, opts).columns[0];
    table.add_row({std::to_string(b), std::to_string(1 << b),
                   util::fmt_i(static_cast<long long>(rf.nonzero_blocks())),
                   std::to_string(rf.stats().locality_bits),
                   util::fmt_g(rf.stats().rel_error_fro, 3),
                   util::fmt_f(rf.memory_overhead_vs_coo(), 3),
                   std::to_string(res.iterations),
                   solve::status_name(res.status)});
    csv.row({std::to_string(b), std::to_string(1 << b),
             std::to_string(rf.nonzero_blocks()),
             std::to_string(rf.stats().locality_bits),
             util::fmt_g(rf.stats().rel_error_fro, 4),
             util::fmt_g(rf.memory_overhead_vs_coo(), 4),
             std::to_string(res.iterations), solve::status_name(res.status)});
  }
  table.print();
  std::printf("\nSmaller blocks: tighter locality and fewer iterations but "
              "more blocks (clusters) and higher index overhead.\n"
              "The paper's b=7 balances both; past b=8 the per-block spread "
              "erodes accuracy.\n");
  return 0;
}
