// Ablation: exponent-base anchoring and offset-window encoding.
//
// The paper's §IV-B text prescribes eb = rounded mean exponent (Eq. 5)
// with a symmetric offset window. In value-faithful simulation that
// configuration saturates the *largest* entries of wide blocks, the
// quantized SPD operator goes indefinite, and CG stalls — on the paper's
// own workloads (a genuine Wathen matrix among them). Anchoring the
// two's-complement window (the 2^e padding planes of Eq. 2) at the block
// maximum eliminates saturation and reproduces the paper's reported
// convergence. This bench documents that finding (DESIGN.md §3).
#include <cstdio>

#include "bench/harness.h"
#include "src/gen/wathen.h"
#include "src/solvers/batched.h"
#include "src/solvers/operator.h"
#include "src/util/table.h"

namespace refloat::bench {
namespace {

struct Variant {
  const char* name;
  core::QuantPolicy policy;
};

void run_matrix(const char* name, const sparse::Csr& a, int fv,
                util::CsvWriter& csv) {
  const std::vector<double> b = solve::make_rhs(a);
  solve::SolveOptions opts = evaluation_options();

  solve::CsrOperator op_double(a);
  const solve::SolveResult base =
      solve::cg_multi(op_double, b, 1, opts).columns[0];
  std::printf("%s (n=%lld, double: %ld iterations):\n", name,
              static_cast<long long>(a.rows()), base.iterations);

  core::QuantPolicy max_tc;  // defaults
  core::QuantPolicy mean_tc;
  mean_tc.base = core::BaseMode::kMeanEq5;
  core::QuantPolicy max_sym;
  max_sym.window = core::WindowMode::kSymmetric;
  const Variant variants[] = {
      {"max-anchor + 2^e window (ours)", max_tc},
      {"Eq.5 mean + symmetric (paper text)", core::paper_literal_policy()},
      {"Eq.5 mean + 2^e window", mean_tc},
      {"max-anchor + symmetric window", max_sym},
  };

  util::Table table({"variant", "conv err (Fro)", "saturated", "status",
                     "iterations"});
  core::Format fmt = core::default_format();
  fmt.fv = fv;
  for (const Variant& v : variants) {
    const core::RefloatMatrix rf(a, fmt, v.policy);
    const auto backend = core::make_value_backend(rf);
    solve::BackendMultiOperator op(*backend, 1);
    const solve::SolveResult res = solve::cg_multi(op, b, 1, opts).columns[0];
    table.add_row({v.name, util::fmt_g(rf.stats().rel_error_fro, 3),
                   std::to_string(rf.stats().overflowed),
                   solve::status_name(res.status),
                   std::to_string(res.iterations)});
    csv.row({name, v.name, util::fmt_g(rf.stats().rel_error_fro, 4),
             std::to_string(rf.stats().overflowed),
             solve::status_name(res.status), std::to_string(res.iterations)});
  }
  table.print();
  std::printf("\n");
}

}  // namespace
}  // namespace refloat::bench

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Ablation: exponent-base anchoring x window encoding "
              "(CG, tau=1e-8) ===\n\n");
  util::CsvWriter csv(results_dir() + "/ablation_base.csv");
  csv.row({"matrix", "variant", "conv_error", "saturated", "status",
           "iterations"});

  run_matrix("wathen(40,40)", gen::wathen(40, 40, 1288), /*fv=*/16, csv);
  const gen::SuiteSpec* crystm01 = gen::find_spec(353);
  run_matrix("crystm01",
             gen::load_or_build(*crystm01, gen::default_data_dir()),
             /*fv=*/8, csv);

  std::printf("Finding: the paper-text reading (Eq. 5 mean base, symmetric "
              "window) saturates dominant entries and CG\nstalls; anchoring "
              "the 2^e-position window at the block maximum reproduces the "
              "paper's convergence.\n");
  return 0;
}
