// Shows that the benchmark's checks accept real outputs of the toolkit and
// reject the same outputs perturbed by the smallest amount that makes them
// wrong: an h-ASPL off by one pair-hop, a partition with one vertex moved,
// one dollar on a cable bill, one pair more in a fault report.
//
// Run: e2e_checks_test (exit 0 when every case behaves).

#include <iostream>
#include <string>

#include "checks.hpp"

namespace {

int failures = 0;

void expect_pass(const std::string& what, const std::string& reason) {
  if (!reason.empty()) {
    ++failures;
    std::cout << "FAIL " << what << ": rejected a correct output: " << reason << "\n";
  } else {
    std::cout << "ok   " << what << "\n";
  }
}

void expect_reject(const std::string& what, const std::string& reason) {
  if (reason.empty()) {
    ++failures;
    std::cout << "FAIL " << what << ": accepted a perturbed output\n";
  } else {
    std::cout << "ok   " << what << " (" << reason << ")\n";
  }
}

}  // namespace

int main() {
  using namespace orp;
  SolveOptions options;
  options.iterations = 300;
  options.seed = 7;
  const SolveResult solved = solve_orp(128, 8, options);
  const HostSwitchGraph& g = solved.graph;
  const std::uint32_t m = g.num_switches();

  // design: BFS agreement and graph structure.
  expect_pass("solved metrics", e2e::check_metrics(g, solved.metrics));
  expect_pass("solved graph", e2e::check_graph(g, 128, m, 8, false));
  HostMetrics off_by_one = solved.metrics;
  off_by_one.total_length += 1;
  off_by_one.h_aspl = static_cast<double>(off_by_one.total_length) /
                      static_cast<double>(off_by_one.connected_pairs);
  expect_reject("h-ASPL one pair-hop long", e2e::check_metrics(g, off_by_one));
  HostMetrics short_diameter = solved.metrics;
  short_diameter.diameter -= 1;
  expect_reject("diameter one short", e2e::check_metrics(g, short_diameter));
  expect_reject("wrong switch count", e2e::check_graph(g, 128, m + 1, 8, false));
  Xoshiro256 rng(3);
  HostSwitchGraph regular = random_regular_host_switch_graph(128, 32, 8, rng);
  expect_pass("regular graph", e2e::check_graph(regular, 128, 32, 8, true));
  // Free a port on another switch and move host 0 there.
  const SwitchId to = (regular.host_switch(0) + 1) % 32;
  regular.remove_switch_edge(to, regular.neighbors(to)[0]);
  regular.move_host(0, to);
  expect_reject("regular graph with one host moved",
                e2e::check_graph(regular, 128, 32, 8, true));

  // analyze: cut recount and balance.
  const CsrGraph csr = csr_from_host_switch_graph(g);
  const PartitionResult parts = partition_graph(csr, 4, 11);
  const std::uint64_t cut = host_switch_cut(g, 4, 11);
  expect_pass("partition", e2e::check_cut(g, 4, parts, cut));
  PartitionResult moved = parts;
  moved.assignment[0] = (moved.assignment[0] + 1) % 4;  // host 0: one link
  --moved.part_weights[parts.assignment[0]];
  ++moved.part_weights[moved.assignment[0]];
  expect_reject("partition with one vertex moved", e2e::check_cut(g, 4, moved, cut));
  expect_reject("cut one link short", e2e::check_cut(g, 4, parts, cut - 1));

  // analyze: cost arithmetic.
  const NetworkCostReport cost = evaluate_network_cost(g);
  expect_pass("cost", e2e::check_cost(g, cost));
  NetworkCostReport pricier = cost;
  pricier.optical_cable_cost_usd += 1.0;
  expect_reject("optical bill one dollar high", e2e::check_cost(g, pricier));
  NetworkCostReport extra_cable = cost;
  ++extra_cable.electrical_cables;
  expect_reject("one electrical cable too many", e2e::check_cost(g, extra_cable));

  // analyze: fault trials and sweeps.
  FaultSpec spec;
  spec.link_failure_rate = 0.1;
  spec.switch_failure_rate = 0.05;
  spec.seed = 5;
  const FaultSet faults = draw_faults(g, spec);
  const ResilienceReport report = evaluate_degraded(g, faults);
  expect_pass("degraded report", e2e::check_degraded(g, faults, report));
  ResilienceReport more_pairs = report;
  ++more_pairs.connected_pairs;
  expect_reject("one connected pair too many", e2e::check_degraded(g, faults, more_pairs));
  ResilienceReport longer = report;
  longer.h_aspl += 1.0 / static_cast<double>(report.connected_pairs);
  expect_reject("degraded h-ASPL one pair-hop long", e2e::check_degraded(g, faults, longer));
  const ResilienceCurvePoint zero = sweep_point(g, FaultSpec{}, 2);
  expect_pass("zero-rate sweep", e2e::check_zero_rate_point(zero));
  ResilienceCurvePoint inflated = zero;
  inflated.p50_haspl_inflation = 1.0 + 1e-9;
  expect_reject("zero-rate inflation above 1", e2e::check_zero_rate_point(inflated));

  // nas: machine timing and NAS result arithmetic.
  const std::vector<HostId> order = dfs_host_order(g);
  Machine machine(g, SimParams{}, order);
  expect_pass("machine probe", e2e::check_machine(machine, g, order));
  SimParams ecmp;
  ecmp.routing = RoutingPolicy::kEcmp;
  Machine ecmp_machine(g, ecmp);
  expect_pass("ECMP machine probe", e2e::check_machine(ecmp_machine, g, {}));
  const NasResult ep = run_nas_kernel(machine, NasKernel::kEP);
  expect_pass("NAS EP", e2e::check_nas(ep));
  NasResult fast = ep;
  fast.mops_per_second *= 1.0001;
  expect_reject("Mop/s not work / time", e2e::check_nas(fast));
  NasResult chatty = ep;
  chatty.comm_seconds = ep.seconds * 1.001;
  expect_reject("comm longer than the run", e2e::check_nas(chatty));

  std::cout << (failures ? "FAILED" : "PASSED") << "\n";
  return failures ? 1 : 0;
}
