#include <gtest/gtest.h>

#include "src/arch/config.h"
#include "src/arch/cost.h"
#include "src/arch/energy.h"
#include "src/arch/gpu_model.h"
#include "src/arch/schedule.h"
#include "src/arch/timing.h"
#include "src/gen/grid.h"

namespace refloat::arch {
namespace {

TEST(Cost, PaperAnchors) {
  // Fig. 3 anchors: FP64-in-ReRAM = 8404 crossbars / 4201 cycles; default
  // ReFloat = 48 / 28; Feinberg = 468 / 233.
  EXPECT_EQ(crossbars_per_cluster(fp64_reram_config().format), 8404);
  EXPECT_EQ(cycles_per_block_mvm(fp64_reram_config().format), 4201);
  EXPECT_EQ(crossbars_per_cluster(core::default_format()), 48);
  EXPECT_EQ(cycles_per_block_mvm(core::default_format()), 28);
  EXPECT_EQ(crossbars_per_cluster(feinberg_config().format), 468);
  EXPECT_EQ(cycles_per_block_mvm(feinberg_config().format), 233);
}

TEST(Config, ClusterCapacity) {
  // 2^20 crossbars on chip (17.18 Gb at 128x128x1b).
  EXPECT_EQ(refloat_config(core::default_format()).total_crossbars,
            1LL << 20);
  EXPECT_EQ(clusters(refloat_config(core::default_format())), 21845);
  EXPECT_EQ(clusters(feinberg_config()), 2240);
  EXPECT_EQ(clusters(fp64_reram_config()), 124);
}

TEST(Deployment, RoundsSplitOnCapacity) {
  const AcceleratorConfig config = refloat_config(core::default_format());
  const DeploymentCost resident = deployment_cost(config, 1000);
  EXPECT_TRUE(resident.resident);
  EXPECT_EQ(resident.rounds, 1);
  const DeploymentCost spill = deployment_cost(config, 50000);
  EXPECT_FALSE(spill.resident);
  EXPECT_EQ(spill.rounds, 3);  // ceil(50000 / 21845)
}

TEST(Timing, ResidentPassIsPureCompute) {
  const AcceleratorConfig config = refloat_config(core::default_format());
  const SpmvTiming timing = spmv_time(config, 1000);
  EXPECT_EQ(timing.rounds, 1);
  EXPECT_DOUBLE_EQ(timing.seconds, 28 * 107.0e-9);
}

TEST(Timing, OverlapHidesTheShorterPhase) {
  AcceleratorConfig config = refloat_config(core::default_format());
  const std::size_t blocks = 50000;  // 3 rounds
  const SpmvTiming overlapped = spmv_time(config, blocks);
  config.overlap_write_compute = false;
  const SpmvTiming serial = spmv_time(config, blocks);
  EXPECT_LT(overlapped.seconds, serial.seconds);
  EXPECT_DOUBLE_EQ(serial.seconds,
                   3 * (overlapped.write_seconds + overlapped.compute_seconds));
}

TEST(Timing, SolveTimeScalesWithIterations) {
  const AcceleratorConfig config = refloat_config(core::default_format());
  const SolveTime t100 =
      accelerator_solve_time(config, 1000, 24696, 100, cg_profile());
  const SolveTime t200 =
      accelerator_solve_time(config, 1000, 24696, 200, cg_profile());
  EXPECT_GT(t100.total_seconds, 0.0);
  EXPECT_NEAR((t200.total_seconds - t200.program_seconds) /
                  (t100.total_seconds - t100.program_seconds),
              2.0, 1e-9);
}

TEST(Timing, SpmmAtBatchOneEqualsSpmv) {
  const AcceleratorConfig config = refloat_config(core::default_format());
  for (const std::size_t blocks : {std::size_t{1000}, std::size_t{50000}}) {
    const SpmvTiming single = spmv_time(config, blocks);
    const SpmvTiming batch1 = spmm_time(config, blocks, 1);
    EXPECT_DOUBLE_EQ(single.seconds, batch1.seconds);
    EXPECT_DOUBLE_EQ(single.per_rhs_seconds, single.seconds);
    EXPECT_EQ(batch1.batch_k, 1);
  }
}

TEST(Timing, BatchAmortizesReprogramCostMonotonically) {
  const AcceleratorConfig config = refloat_config(core::default_format());
  const std::size_t blocks = 50000;  // 3 rewrite rounds: write-bound at k=1
  double prev = spmm_time(config, blocks, 1).per_rhs_seconds;
  for (const long k : {2L, 4L, 8L, 16L, 32L}) {
    const SpmvTiming timing = spmm_time(config, blocks, k);
    // The batch shares each round's writes, so per-RHS time strictly falls
    // until compute swamps the write phase, then plateaus.
    EXPECT_LE(timing.per_rhs_seconds, prev) << "k=" << k;
    prev = timing.per_rhs_seconds;
  }
  // And the k=8 batch beats 8 sequential passes outright.
  const double sequential8 = 8.0 * spmv_time(config, blocks).seconds;
  EXPECT_LT(spmm_time(config, blocks, 8).seconds, sequential8);
  // A resident matrix never pays per-pass writes: batching is exactly
  // linear there (no amortization left beyond the one-time programming).
  const SpmvTiming resident = spmm_time(config, 1000, 8);
  EXPECT_DOUBLE_EQ(resident.seconds, 8.0 * spmv_time(config, 1000).seconds);
}

TEST(Timing, BatchedSolveChargesProgrammingOncePerBatch) {
  const AcceleratorConfig config = refloat_config(core::default_format());
  const SolverProfile profile = cg_profile();
  // Non-resident: per-RHS solve time falls monotonically with k.
  double prev = accelerator_batched_solve_time(config, 50000, 24696, 100,
                                               profile, 1)
                    .per_rhs_seconds;
  for (const long k : {2L, 4L, 8L, 16L, 32L}) {
    const SolveTime time = accelerator_batched_solve_time(config, 50000,
                                                          24696, 100,
                                                          profile, k);
    EXPECT_LT(time.per_rhs_seconds, prev) << "k=" << k;
    EXPECT_EQ(time.batch_k, k);
    prev = time.per_rhs_seconds;
  }
  // k = 1 must be exactly the historical single-RHS model, and the digital
  // vector work still scales per column.
  const SolveTime single =
      accelerator_solve_time(config, 50000, 24696, 100, profile);
  const SolveTime batch1 = accelerator_batched_solve_time(config, 50000,
                                                          24696, 100,
                                                          profile, 1);
  EXPECT_DOUBLE_EQ(single.total_seconds, batch1.total_seconds);
  const SolveTime batch4 = accelerator_batched_solve_time(config, 50000,
                                                          24696, 100,
                                                          profile, 4);
  EXPECT_DOUBLE_EQ(batch4.vector_seconds, 4.0 * batch1.vector_seconds);
  // Resident: the one-time programming is charged once for the whole batch.
  const SolveTime res1 = accelerator_batched_solve_time(config, 1000, 24696,
                                                        100, profile, 1);
  const SolveTime res8 = accelerator_batched_solve_time(config, 1000, 24696,
                                                        100, profile, 8);
  EXPECT_GT(res1.program_seconds, 0.0);
  EXPECT_DOUBLE_EQ(res8.program_seconds, res1.program_seconds);
  EXPECT_LT(res8.per_rhs_seconds, res1.per_rhs_seconds);
}

TEST(Schedule, EventTimelineMatchesClosedForm) {
  // The closed form must be the timeline's exact fixed point, resident and
  // multi-round, with and without overlap.
  core::Format fmt = core::default_format();
  fmt.b = 4;  // many 16x16 blocks
  const core::RefloatMatrix rf(
      gen::build_stencil(gen::laplace2d_5pt(48, 48)), fmt);
  AcceleratorConfig config = refloat_config(core::default_format());
  config.crossbar_bits = 4;
  for (const long long capacity : {100000LL, 200LL, 37LL}) {
    config.total_crossbars =
        capacity * crossbars_per_cluster(config.format);
    for (const bool overlap : {true, false}) {
      config.overlap_write_compute = overlap;
      const ScheduleStats sim = simulate_spmv(config, rf);
      const SpmvTiming model = spmv_time(config, rf.nonzero_blocks());
      EXPECT_EQ(sim.rounds, model.rounds);
      EXPECT_NEAR(sim.seconds, model.seconds, 1e-15);
    }
  }
}

TEST(Schedule, ResidentMatrixStreamsNoCells) {
  core::Format fmt = core::default_format();
  fmt.b = 5;
  const core::RefloatMatrix rf(
      gen::build_stencil(gen::laplace2d_5pt(32, 32)), fmt);
  const AcceleratorConfig config = refloat_config(core::default_format());
  const ScheduleStats sim = simulate_spmv(config, rf);
  EXPECT_EQ(sim.rounds, 1);
  EXPECT_EQ(sim.matrix_stream_bits, 0);
  EXPECT_GT(sim.input_vector_bits, 0);
  EXPECT_GT(sim.cluster_utilization, 0.0);
  EXPECT_LE(sim.cluster_utilization, 1.0);
}

TEST(Energy, ReprogrammingDominatesMultiRound) {
  const EnergyModel energy;
  const AcceleratorConfig config = refloat_config(core::default_format());
  const std::size_t resident_blocks = 1000;
  const std::size_t spilled_blocks = 100000;  // > cluster capacity
  const SolveEnergy resident = accelerator_solve_energy(
      config, energy, resident_blocks, 24696, 100, cg_profile());
  const SolveEnergy spilled = accelerator_solve_energy(
      config, energy, spilled_blocks, 24696, 100, cg_profile());
  EXPECT_LT(resident.write_joules, resident.compute_joules);
  EXPECT_GT(spilled.write_joules, spilled.compute_joules);
  EXPECT_GT(spilled.total_joules(), resident.total_joules());
}

TEST(Gpu, LaunchOverheadDominatesSmallSystems) {
  const GpuModel gpu;
  const SolverProfile profile = cg_profile();
  const double seconds = gpu_solve_seconds(gpu, 583770, 24696, 80, profile);
  // crystm03-scale: tens of microseconds per iteration.
  EXPECT_GT(seconds / 80.0, 10e-6);
  EXPECT_LT(seconds / 80.0, 200e-6);
  // Twice the iterations, twice the time.
  EXPECT_DOUBLE_EQ(gpu_solve_seconds(gpu, 583770, 24696, 160, profile),
                   2.0 * seconds);
}

TEST(Speedup, RefloatBeatsGpuOnResidentMatrices) {
  // The Fig. 8 headline at crystm03 scale: modeled ReFloat time beats the
  // modeled GPU baseline by an order of magnitude.
  const GpuModel gpu;
  const double gpu_seconds =
      gpu_solve_seconds(gpu, 583770, 24696, 80, cg_profile());
  const double rf_seconds =
      accelerator_solve_time(refloat_config(core::default_format()), 2000,
                             24696, 95, cg_profile())
          .total_seconds;
  EXPECT_GT(gpu_seconds / rf_seconds, 5.0);
  EXPECT_LT(gpu_seconds / rf_seconds, 100.0);
}

}  // namespace
}  // namespace refloat::arch
