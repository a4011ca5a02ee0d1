// The traced run is only trustworthy if wrapping the executor changes
// nothing the engine computes: these tests hold the decorator to bitwise
// equality with the bare executor on a small alignment.

#include <cstring>

#include <gtest/gtest.h>

#include "likelihood/executor.h"
#include "search/analysis.h"
#include "seq/seqgen.h"
#include "timing_executor.h"

namespace {

using namespace rxc;

struct Case {
  lh::RateMode mode;
  int threads;
};

class TimingExecutorTest : public ::testing::TestWithParam<Case> {};

TEST_P(TimingExecutorTest, WrappedRunIsBitwiseEqualToBareRun) {
  seq::SimOptions so;
  so.ntaxa = 10;
  so.nsites = 300;
  so.seed = 5;
  const auto sim = seq::simulate_alignment(so);
  const auto pa = seq::PatternAlignment::compress(sim.alignment);
  lh::EngineConfig cfg;
  cfg.model = model::DnaModel::gtr({1, 1, 1, 1, 1, 1},
                                   sim.alignment.empirical_base_freqs());
  cfg.mode = GetParam().mode;
  cfg.categories = cfg.mode == lh::RateMode::kCat ? 25 : 4;
  search::SearchOptions sopt;
  sopt.max_rounds = 2;
  // An inference and a bootstrap: both weight paths go through the wrapper.
  const auto tasks = search::make_analysis(1, 1);

  for (const auto& task : tasks) {
    const auto bare_exec = perf::cli_executor(cfg.kernels, GetParam().threads);
    const auto bare = search::run_task(pa, cfg, sopt, task, bare_exec.get());

    const auto inner = perf::cli_executor(cfg.kernels, GetParam().threads);
    perf::TimingExecutor timed(*inner);
    const auto wrapped = search::run_task(pa, cfg, sopt, task, &timed);

    EXPECT_EQ(0, std::memcmp(&bare.log_likelihood, &wrapped.log_likelihood,
                             sizeof(double)))
        << bare.log_likelihood << " vs " << wrapped.log_likelihood;
    EXPECT_EQ(bare.newick, wrapped.newick);
    EXPECT_EQ(bare.rounds, wrapped.rounds);
    // The wrapper mirrors the wrapped executor's counters, and its own
    // call counts agree with them.
    EXPECT_EQ(wrapped.counters.newview_calls, inner->counters().newview_calls);
    EXPECT_EQ(timed.timing(perf::KernelKind::kNewview).calls,
              inner->counters().newview_calls);
    EXPECT_EQ(timed.timing(perf::KernelKind::kEvaluate).calls,
              inner->counters().evaluate_calls);
    EXPECT_GT(timed.seconds(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TimingExecutorTest,
    ::testing::Values(Case{lh::RateMode::kCat, 1},
                      Case{lh::RateMode::kGamma, 1},
                      Case{lh::RateMode::kCat, 3},
                      Case{lh::RateMode::kGamma, 3}));

TEST(TimingExecutor, ForwardsBatchesAndGradientsWithTheirWidths) {
  seq::SimOptions so;
  so.ntaxa = 8;
  so.nsites = 200;
  so.seed = 9;
  const auto sim = seq::simulate_alignment(so);
  const auto pa = seq::PatternAlignment::compress(sim.alignment);
  lh::EngineConfig cfg;
  cfg.mode = lh::RateMode::kGamma;
  cfg.categories = 4;
  search::SearchOptions sopt;
  sopt.max_rounds = 1;
  sopt.gradient_smoothing = true;  // reaches preorder_batch + edge_gradient

  const auto bare_exec = perf::cli_executor(cfg.kernels, 2);
  const auto bare = search::run_task(pa, cfg, sopt, {}, bare_exec.get());
  const auto inner = perf::cli_executor(cfg.kernels, 2);
  perf::TimingExecutor timed(*inner);
  const auto wrapped = search::run_task(pa, cfg, sopt, {}, &timed);

  EXPECT_EQ(0, std::memcmp(&bare.log_likelihood, &wrapped.log_likelihood,
                           sizeof(double)));
  const auto& grad = timed.timing(perf::KernelKind::kEdgeGradient);
  EXPECT_EQ(grad.calls, inner->counters().edge_gradient_calls);
  EXPECT_GT(grad.calls, 0u);
  EXPECT_GE(grad.calls, grad.dispatches);
}

}  // namespace
