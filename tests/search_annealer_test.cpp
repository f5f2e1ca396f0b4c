// Tests for the simulated annealer: improvement over random starts,
// structural invariants of the result, determinism, mode behaviour.
#include <gtest/gtest.h>

#include <bit>

#include "common/prng.hpp"
#include "hsg/bounds.hpp"
#include "search/annealer.hpp"
#include "search/random_init.hpp"

namespace orp {
namespace {

AnnealOptions quick(MoveMode mode, std::uint64_t iterations = 1500,
                    std::uint64_t seed = 1) {
  AnnealOptions options;
  options.iterations = iterations;
  options.mode = mode;
  options.seed = seed;
  return options;
}

// FNV-1a over the exact bits of every trace sample.
std::uint64_t trace_hash(const std::vector<AnnealTracePoint>& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const AnnealTracePoint& p : trace) {
    mix(p.iteration);
    mix(std::bit_cast<std::uint64_t>(p.current_haspl));
    mix(std::bit_cast<std::uint64_t>(p.best_haspl));
    mix(std::bit_cast<std::uint64_t>(p.temperature));
  }
  return hash;
}

TEST(Annealer, ImprovesOverRandomStart) {
  Xoshiro256 rng(1);
  const auto initial = random_host_switch_graph(96, 24, 8, rng);
  const auto initial_metrics = compute_host_metrics(initial);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing));
  EXPECT_LE(result.best_metrics.total_length, initial_metrics.total_length);
  EXPECT_LT(result.best_metrics.h_aspl, initial_metrics.h_aspl);
  result.best.check_invariants();
  EXPECT_TRUE(result.best_metrics.connected);
}

TEST(Annealer, BestNeverWorseThanReported) {
  Xoshiro256 rng(2);
  const auto initial = random_host_switch_graph(64, 16, 8, rng);
  const auto result = anneal(initial, quick(MoveMode::kSwing));
  const auto recomputed = compute_host_metrics(result.best);
  EXPECT_EQ(recomputed.total_length, result.best_metrics.total_length);
  EXPECT_EQ(recomputed.diameter, result.best_metrics.diameter);
}

TEST(Annealer, RespectsLowerBound) {
  Xoshiro256 rng(3);
  const auto initial = random_host_switch_graph(128, 32, 10, rng);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing));
  EXPECT_GE(result.best_metrics.h_aspl, haspl_lower_bound(128, 10) - 1e-12);
}

TEST(Annealer, DeterministicForEqualSeeds) {
  Xoshiro256 rng_a(4), rng_b(4);
  const auto init_a = random_host_switch_graph(64, 16, 8, rng_a);
  const auto init_b = random_host_switch_graph(64, 16, 8, rng_b);
  ASSERT_TRUE(init_a == init_b);
  const auto res_a = anneal(init_a, quick(MoveMode::kTwoNeighborSwing, 800, 9));
  const auto res_b = anneal(init_b, quick(MoveMode::kTwoNeighborSwing, 800, 9));
  EXPECT_TRUE(res_a.best == res_b.best);
  EXPECT_EQ(res_a.accepted, res_b.accepted);
  EXPECT_EQ(res_a.evaluations, res_b.evaluations);
}

// The "bit-identical trajectory" guarantee: because the incremental
// evaluator returns exactly the integers full recompute would, the same
// seed must produce the same accept/reject sequence, the same trace, and
// the same final graph under both strategies — for every move mode.
TEST(Annealer, FullAndDeltaAgree) {
  for (const MoveMode mode :
       {MoveMode::kSwap, MoveMode::kSwing, MoveMode::kTwoNeighborSwing}) {
    Xoshiro256 rng_full(21), rng_delta(21);
    const auto init_full = random_host_switch_graph(96, 24, 8, rng_full);
    const auto init_delta = random_host_switch_graph(96, 24, 8, rng_delta);
    ASSERT_TRUE(init_full == init_delta);

    auto options = quick(mode, 1200, 33);
    options.trace_every = 1;  // compare the walk step by step
    options.eval = EvalStrategy::kFull;
    const auto full = anneal(init_full, options);
    options.eval = EvalStrategy::kDelta;
    const auto delta = anneal(init_delta, options);

    EXPECT_EQ(full.accepted, delta.accepted);
    EXPECT_EQ(full.evaluations, delta.evaluations);
    EXPECT_TRUE(full.best == delta.best);
    EXPECT_EQ(full.best_metrics.total_length, delta.best_metrics.total_length);
    EXPECT_EQ(full.best_metrics.diameter, delta.best_metrics.diameter);
    EXPECT_DOUBLE_EQ(full.best_metrics.h_aspl, delta.best_metrics.h_aspl);
    ASSERT_EQ(full.trace.size(), delta.trace.size());
    for (std::size_t i = 0; i < full.trace.size(); ++i) {
      EXPECT_EQ(full.trace[i].iteration, delta.trace[i].iteration);
      EXPECT_DOUBLE_EQ(full.trace[i].current_haspl, delta.trace[i].current_haspl);
      EXPECT_DOUBLE_EQ(full.trace[i].best_haspl, delta.trace[i].best_haspl);
      EXPECT_DOUBLE_EQ(full.trace[i].temperature, delta.trace[i].temperature);
    }
  }
}

// The one-chain search (K=1, the default) is pinned step by step: these
// constants are the best total length, counters and trace_every=1 trace
// hash that the standalone single-chain annealer produced on this instance
// before it became the K=1 case of the replica loop. The walk must also
// not depend on where the exchange barriers fall.
TEST(Annealer, OneReplicaTrajectoryMatchesGolden) {
  struct Golden {
    MoveMode mode;
    std::uint64_t total_length, accepted, evaluations, trace_hash;
  };
  for (const Golden& golden : {
           Golden{MoveMode::kSwap, 18560, 275, 1201, 0x8bb05af029dca485ULL},
           Golden{MoveMode::kSwing, 18559, 221, 1201, 0xa1426e6d3668c6d8ULL},
           Golden{MoveMode::kTwoNeighborSwing, 18613, 300, 2200,
                  0xbb2372c2b5ce7139ULL},
       }) {
    Xoshiro256 rng(31);
    const auto initial = random_host_switch_graph(96, 24, 8, rng);
    auto options = quick(golden.mode, 1200, 57);
    options.trace_every = 1;
    for (const std::uint64_t interval : {std::uint64_t{100}, std::uint64_t{1000000000}}) {
      options.swap_interval = interval;
      const auto result = anneal(initial, options);
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(golden.mode)
                                      << ", swap_interval " << interval);
      EXPECT_EQ(result.best_metrics.total_length, golden.total_length);
      EXPECT_EQ(result.accepted, golden.accepted);
      EXPECT_EQ(result.evaluations, golden.evaluations);
      EXPECT_EQ(result.trace.size(), 1200u);
      EXPECT_EQ(trace_hash(result.trace), golden.trace_hash);
      EXPECT_EQ(result.best_replica, 0u);
      ASSERT_EQ(result.replicas.size(), 1u);
      EXPECT_EQ(result.replicas[0].moves, 1200u);
      EXPECT_EQ(result.replicas[0].swaps_attempted, 0u);
    }
  }
}

TEST(Annealer, SwapModePreservesHostDistribution) {
  Xoshiro256 rng(5);
  const auto initial = random_regular_host_switch_graph(96, 24, 8, rng);
  const auto result = anneal(initial, quick(MoveMode::kSwap));
  for (SwitchId s = 0; s < initial.num_switches(); ++s) {
    EXPECT_EQ(result.best.hosts_on(s), initial.hosts_on(s));
  }
}

TEST(Annealer, SwingModeCanChangeHostDistribution) {
  Xoshiro256 rng(6);
  const auto initial = random_host_switch_graph(96, 24, 8, rng);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing, 3000));
  bool changed = false;
  for (SwitchId s = 0; s < initial.num_switches(); ++s) {
    changed |= (result.best.hosts_on(s) != initial.hosts_on(s));
  }
  EXPECT_TRUE(changed);  // with 3000 iterations some swing lands
}

TEST(Annealer, PreservesEdgeAndPortBudget) {
  Xoshiro256 rng(7);
  const auto initial = random_host_switch_graph(80, 20, 9, rng);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing));
  EXPECT_EQ(result.best.num_switch_edges(), initial.num_switch_edges());
  EXPECT_EQ(result.best.num_hosts(), initial.num_hosts());
  EXPECT_TRUE(result.best.fully_attached());
}

TEST(Annealer, TraceRecordsSamples) {
  Xoshiro256 rng(8);
  const auto initial = random_host_switch_graph(48, 12, 8, rng);
  auto options = quick(MoveMode::kTwoNeighborSwing, 1000);
  options.trace_every = 100;
  const auto result = anneal(initial, options);
  EXPECT_EQ(result.trace.size(), 10u);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const AnnealTracePoint& sample = result.trace[i];
    EXPECT_EQ(sample.iteration, i * 100);
    EXPECT_GT(sample.current_haspl, 2.0);
    EXPECT_GT(sample.best_haspl, 2.0);
    // The best seen so far can never trail the current solution.
    EXPECT_LE(sample.best_haspl, sample.current_haspl);
    EXPECT_GT(sample.temperature, 0.0);
    // Geometric cooling: temperatures are non-increasing along the trace.
    if (i > 0) {
      EXPECT_LE(sample.temperature, result.trace[i - 1].temperature);
    }
  }
}

TEST(Annealer, RejectsDisconnectedInitial) {
  HostSwitchGraph g(2, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  EXPECT_THROW(anneal(g, quick(MoveMode::kSwap)), std::invalid_argument);
}

TEST(Annealer, SingleSwitchGraphIsStable) {
  HostSwitchGraph g(4, 1, 8);
  for (HostId h = 0; h < 4; ++h) g.attach_host(h, 0);
  const auto result = anneal(g, quick(MoveMode::kTwoNeighborSwing, 10));
  EXPECT_DOUBLE_EQ(result.best_metrics.h_aspl, 2.0);
}

}  // namespace
}  // namespace orp
