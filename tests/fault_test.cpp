// Tests for the fault-injection subsystem: deterministic draws, cabinet
// correlation, degraded-graph construction, resilience reports, event
// scheduling, the Monte-Carlo sweep, and how i.i.d. link failures degrade
// graphs of different redundancy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/prng.hpp"
#include "fault/degraded.hpp"
#include "fault/events.hpp"
#include "fault/model.hpp"
#include "fault/montecarlo.hpp"
#include "hsg/metrics.hpp"
#include "search/random_init.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

HostSwitchGraph sample_graph(std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  return random_host_switch_graph(128, 32, 10, rng);
}

TEST(FaultModel, DefaultSpecDrawsNothing) {
  const auto g = sample_graph();
  const FaultSet faults = draw_faults(g, FaultSpec{});
  EXPECT_TRUE(faults.empty());
  EXPECT_TRUE(faults.failed_cabinets.empty());
}

TEST(FaultModel, DrawIsBitIdenticalAcrossRuns) {
  const auto g = sample_graph();
  FaultSpec spec;
  spec.link_failure_rate = 0.08;
  spec.switch_failure_rate = 0.05;
  spec.cabinet_outage_rate = 0.1;
  spec.switches_per_cabinet = 4;
  spec.seed = 42;

  const FaultSet a = draw_faults(g, spec);
  const FaultSet b = draw_faults(g, spec);
  EXPECT_EQ(a.failed_links, b.failed_links);
  EXPECT_EQ(a.failed_switches, b.failed_switches);
  EXPECT_EQ(a.failed_cabinets, b.failed_cabinets);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Different seed, different draw (overwhelmingly likely at these rates).
  spec.seed = 43;
  const FaultSet c = draw_faults(g, spec);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(FaultModel, CategoriesUseIndependentStreams) {
  // Adding cabinet outages must not change which links/switches fail.
  const auto g = sample_graph();
  FaultSpec spec;
  spec.link_failure_rate = 0.1;
  spec.switch_failure_rate = 0.05;
  spec.seed = 99;
  const FaultSet without = draw_faults(g, spec);

  spec.cabinet_outage_rate = 0.2;
  spec.switches_per_cabinet = 4;
  const FaultSet with = draw_faults(g, spec);
  EXPECT_EQ(without.failed_links, with.failed_links);
  // Every switch failed without cabinets still fails with them.
  for (const SwitchId s : without.failed_switches) {
    EXPECT_TRUE(std::binary_search(with.failed_switches.begin(),
                                   with.failed_switches.end(), s));
  }
}

TEST(FaultModel, CabinetOutageKillsAllItsSwitches) {
  const auto g = sample_graph();
  FaultSpec spec;
  spec.cabinet_outage_rate = 0.3;
  spec.switches_per_cabinet = 4;
  spec.seed = 5;
  const FaultSet faults = draw_faults(g, spec);
  ASSERT_FALSE(faults.failed_cabinets.empty());
  for (const std::uint32_t c : faults.failed_cabinets) {
    for (SwitchId s = c * 4; s < std::min(g.num_switches(), (c + 1) * 4); ++s) {
      EXPECT_TRUE(std::binary_search(faults.failed_switches.begin(),
                                     faults.failed_switches.end(), s))
          << "cabinet " << c << " switch " << s;
    }
  }
  EXPECT_EQ(num_cabinets(g, spec), 8u);  // 32 switches / 4 per cabinet
}

TEST(FaultModel, DrawnLinksExistInTheGraph) {
  const auto g = sample_graph();
  FaultSpec spec;
  spec.link_failure_rate = 0.25;
  spec.seed = 11;
  const FaultSet faults = draw_faults(g, spec);
  ASSERT_FALSE(faults.failed_links.empty());
  for (const auto& [a, b] : faults.failed_links) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(g.has_switch_edge(a, b));
  }
  EXPECT_TRUE(std::is_sorted(faults.failed_links.begin(),
                             faults.failed_links.end()));
}

TEST(FaultModel, RejectsOutOfRangeRates) {
  const auto g = sample_graph();
  FaultSpec spec;
  spec.link_failure_rate = 1.5;
  EXPECT_THROW(draw_faults(g, spec), std::invalid_argument);
  spec.link_failure_rate = -0.1;
  EXPECT_THROW(draw_faults(g, spec), std::invalid_argument);
}

TEST(DegradedGraph, SwitchDeathDetachesItsHosts) {
  // Path s0-s1-s2, one host each; kill s1 (the bridge).
  HostSwitchGraph g(3, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);

  FaultSet faults;
  faults.failed_switches = {1};
  const DegradedGraph degraded = apply_faults(g, faults);
  EXPECT_EQ(degraded.live_hosts, 2u);
  EXPECT_EQ(degraded.dead_hosts, 1u);
  EXPECT_EQ(degraded.removed_links, 2u);
  EXPECT_FALSE(degraded.graph.host_attached(1));
  EXPECT_TRUE(degraded.graph.host_attached(0));
  EXPECT_EQ(degraded.graph.num_switch_edges(), 0u);
  EXPECT_TRUE(degraded.switch_dead[1]);
  EXPECT_FALSE(degraded.switch_dead[0]);
}

TEST(DegradedGraph, ReportCountsPairCategories) {
  // Kill the bridge switch: the two surviving hosts cannot reach each
  // other, and the dead host accounts for 2 dead pairs.
  HostSwitchGraph g(3, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);

  FaultSet faults;
  faults.failed_switches = {1};
  const ResilienceReport report = evaluate_degraded(g, faults);
  EXPECT_EQ(report.live_hosts, 2u);
  EXPECT_EQ(report.dead_hosts, 1u);
  EXPECT_EQ(report.connected_pairs, 0u);
  EXPECT_EQ(report.unreachable_pairs, 1u);  // the two live hosts
  EXPECT_EQ(report.dead_pairs, 2u);
  EXPECT_FALSE(report.live_hosts_connected);
  EXPECT_TRUE(std::isinf(report.h_aspl));
  EXPECT_DOUBLE_EQ(report.reachable_fraction(g.num_hosts()), 0.0);
}

TEST(DegradedGraph, LinkFaultDegradesButKeepsConnectivity) {
  // Ring of 4 switches, one host each: losing one cable leaves a path
  // graph — still connected, longer routes.
  HostSwitchGraph g(4, 4, 4);
  for (HostId h = 0; h < 4; ++h) g.attach_host(h, h);
  for (SwitchId s = 0; s < 4; ++s) g.add_switch_edge(s, (s + 1) % 4);
  const HostMetrics healthy = compute_host_metrics(g);

  FaultSet faults;
  faults.failed_links = {{0, 1}};
  const ResilienceReport report = evaluate_degraded(g, faults);
  EXPECT_TRUE(report.live_hosts_connected);
  EXPECT_EQ(report.dead_hosts, 0u);
  EXPECT_EQ(report.unreachable_pairs, 0u);
  EXPECT_GT(report.h_aspl, healthy.h_aspl);
  EXPECT_EQ(report.diameter, 5u);  // s0..s3 along the path, +2 host hops
}

TEST(DegradedGraph, ReportIsDeterministic) {
  const auto g = sample_graph();
  FaultSpec spec;
  spec.link_failure_rate = 0.1;
  spec.switch_failure_rate = 0.05;
  spec.seed = 17;
  const ResilienceReport a = evaluate_degraded(g, draw_faults(g, spec));
  const ResilienceReport b = evaluate_degraded(g, draw_faults(g, spec));
  EXPECT_EQ(a.fault_fingerprint, b.fault_fingerprint);
  EXPECT_EQ(a.connected_pairs, b.connected_pairs);
  EXPECT_EQ(a.unreachable_pairs, b.unreachable_pairs);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_DOUBLE_EQ(a.h_aspl, b.h_aspl);
}

TEST(FaultEvents, ScheduleIsSortedDeterministicAndComplete) {
  const auto g = sample_graph();
  FaultSpec spec;
  spec.link_failure_rate = 0.1;
  spec.switch_failure_rate = 0.1;
  spec.seed = 23;
  const FaultSet faults = draw_faults(g, spec);
  ASSERT_FALSE(faults.empty());

  const auto events = schedule_fault_events(faults, 1.0, 2.0, 77);
  EXPECT_EQ(events.size(),
            faults.failed_links.size() + faults.failed_switches.size());
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const FaultEvent& x, const FaultEvent& y) {
                               return x.time < y.time;
                             }));
  for (const FaultEvent& e : events) {
    EXPECT_GE(e.time, 1.0);
    EXPECT_LT(e.time, 3.0);
  }
  const auto replay = schedule_fault_events(faults, 1.0, 2.0, 77);
  ASSERT_EQ(events.size(), replay.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, replay[i].time);
    EXPECT_EQ(events[i].kind, replay[i].kind);
    EXPECT_EQ(events[i].a, replay[i].a);
    EXPECT_EQ(events[i].b, replay[i].b);
  }
}

TEST(FaultEvents, ZeroWindowStrikesAtStart) {
  FaultSet faults;
  faults.failed_links = {{0, 1}, {2, 3}};
  const auto events = schedule_fault_events(faults, 0.5, 0.0, 1);
  for (const FaultEvent& e : events) EXPECT_DOUBLE_EQ(e.time, 0.5);
}

TEST(MonteCarlo, SweepIsDeterministicAndMonotoneInRate) {
  const auto g = sample_graph();
  FaultSpec mild;
  mild.link_failure_rate = 0.02;
  mild.seed = 3;
  FaultSpec harsh = mild;
  harsh.link_failure_rate = 0.3;

  const ResilienceCurvePoint a = sweep_point(g, mild, 20);
  const ResilienceCurvePoint b = sweep_point(g, mild, 20);
  EXPECT_DOUBLE_EQ(a.p50_haspl_inflation, b.p50_haspl_inflation);
  EXPECT_DOUBLE_EQ(a.mean_reachable_fraction, b.mean_reachable_fraction);
  EXPECT_EQ(a.partitioned_trials, b.partitioned_trials);

  const ResilienceCurvePoint c = sweep_point(g, harsh, 20);
  EXPECT_GE(c.p50_haspl_inflation, a.p50_haspl_inflation);
  EXPECT_LE(c.mean_reachable_fraction, a.mean_reachable_fraction);
  EXPECT_GE(a.p90_haspl_inflation, a.p50_haspl_inflation);
  EXPECT_GE(a.max_haspl_inflation, a.p90_haspl_inflation);
}

TEST(MonteCarlo, TrialSeedsDiffer) {
  EXPECT_NE(trial_seed(1, 0), trial_seed(1, 1));
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
  EXPECT_EQ(trial_seed(9, 4), trial_seed(9, 4));
}

// ---- i.i.d. link failures across topologies ---------------------------------

ResilienceCurvePoint link_sweep(const HostSwitchGraph& g, double rate,
                                std::uint32_t trials, std::uint64_t seed) {
  FaultSpec spec;
  spec.link_failure_rate = rate;
  spec.seed = seed;
  return sweep_point(g, spec, trials);
}

TEST(Resilience, ZeroFailureRateIsHarmless) {
  const auto g = build_torus(TorusParams{2, 4, 8}, 32);
  const ResilienceCurvePoint point = link_sweep(g, 0.0, 5, 1);
  EXPECT_EQ(point.trials, 5u);
  EXPECT_EQ(point.partitioned_trials, 0u);
  EXPECT_DOUBLE_EQ(point.max_haspl_inflation, 1.0);  // zero inflation
  EXPECT_DOUBLE_EQ(point.min_reachable_fraction, 1.0);
}

TEST(Resilience, FailuresInflateHaspl) {
  const auto g = build_torus(TorusParams{2, 6, 8}, 36);
  const ResilienceCurvePoint point = link_sweep(g, 0.08, 20, 2);
  EXPECT_LT(point.partitioned_trials, point.trials);
  EXPECT_GT(point.max_haspl_inflation, 1.0);
  EXPECT_GE(point.max_haspl_inflation, point.p50_haspl_inflation);
}

TEST(Resilience, TreeSnapsImmediately) {
  // A path of switches disconnects whenever any inter-switch cable fails.
  HostSwitchGraph g(4, 4, 4);
  for (HostId h = 0; h < 4; ++h) g.attach_host(h, h);
  for (SwitchId s = 0; s + 1 < 4; ++s) g.add_switch_edge(s, s + 1);
  const ResilienceCurvePoint point = link_sweep(g, 0.5, 40, 3);
  // 1 - 0.5^3 = 0.875 expected.
  EXPECT_GT(point.partitioned_trials, point.trials / 2);
}

TEST(Resilience, RicherGraphsDisconnectLess) {
  // Same switch count: a ring (degree 2) vs a random saturated graph
  // (degree ~6) at the same rate — redundancy pays.
  HostSwitchGraph ring(16, 16, 8);
  for (HostId h = 0; h < 16; ++h) ring.attach_host(h, h);
  for (SwitchId s = 0; s < 16; ++s) ring.add_switch_edge(s, (s + 1) % 16);
  Xoshiro256 init_rng(4);
  const auto dense = random_host_switch_graph(16, 16, 8, init_rng);

  const ResilienceCurvePoint ring_point = link_sweep(ring, 0.15, 40, 5);
  const ResilienceCurvePoint dense_point = link_sweep(dense, 0.15, 40, 5);
  EXPECT_GT(ring_point.partitioned_trials, dense_point.partitioned_trials);
  EXPECT_LT(ring_point.mean_reachable_fraction, dense_point.mean_reachable_fraction);
}

TEST(Resilience, RejectsBadArguments) {
  const auto g = build_torus(TorusParams{2, 4, 8}, 32);
  EXPECT_THROW(link_sweep(g, 1.5, 5, 1), std::invalid_argument);
  EXPECT_THROW(link_sweep(g, -0.1, 5, 1), std::invalid_argument);
  EXPECT_THROW(link_sweep(g, 0.1, 0, 1), std::invalid_argument);
  HostSwitchGraph split(2, 2, 4);  // two islands: no connected baseline
  split.attach_host(0, 0);
  split.attach_host(1, 1);
  EXPECT_THROW(link_sweep(split, 0.1, 5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace orp
