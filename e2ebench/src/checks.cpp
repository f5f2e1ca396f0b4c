#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace e2e {
namespace {

using orp::HostId;
using orp::HostSwitchGraph;
using orp::SwitchId;

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Attached hosts per switch, counted from host_switch() rather than the
// graph's own per-switch tally.
std::vector<std::uint64_t> count_hosts(const HostSwitchGraph& g) {
  std::vector<std::uint64_t> hosts(g.num_switches(), 0);
  for (HostId h = 0; h < g.num_hosts(); ++h) {
    const SwitchId s = g.host_switch(h);
    if (s != HostSwitchGraph::kDetached) ++hosts[s];
  }
  return hosts;
}

// Unit-weight BFS distances from `source` over the switch subgraph;
// unreachable switches keep UINT32_MAX.
void bfs_from(const HostSwitchGraph& g, SwitchId source,
              std::vector<std::uint32_t>& dist, std::vector<SwitchId>& queue) {
  dist.assign(g.num_switches(), UINT32_MAX);
  queue.clear();
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SwitchId s = queue[head];
    for (const SwitchId t : g.neighbors(s)) {
      if (dist[t] == UINT32_MAX) {
        dist[t] = dist[s] + 1;
        queue.push_back(t);
      }
    }
  }
}

}  // namespace

void Checker::expect(const std::string& what, const std::string& reason) {
  ++checks_;
  if (!reason.empty()) failures_.push_back(what + ": " + reason);
}

BfsMetrics bfs_host_metrics(const HostSwitchGraph& g) {
  const std::vector<std::uint64_t> hosts = count_hosts(g);
  BfsMetrics out;
  std::vector<std::uint32_t> dist;
  std::vector<SwitchId> queue;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    if (hosts[s] == 0) continue;
    // Hosts sharing a switch are two links apart.
    const std::uint64_t local = hosts[s] * (hosts[s] - 1) / 2;
    out.total_length += 2 * local;
    out.connected_pairs += local;
    if (local) out.diameter = std::max(out.diameter, 2u);
    bfs_from(g, s, dist, queue);
    for (SwitchId t = s + 1; t < g.num_switches(); ++t) {
      if (hosts[t] == 0) continue;
      const std::uint64_t pairs = hosts[s] * hosts[t];
      if (dist[t] == UINT32_MAX) {
        out.unreachable_pairs += pairs;
        continue;
      }
      out.total_length += pairs * (dist[t] + 2);
      out.connected_pairs += pairs;
      out.diameter = std::max(out.diameter, dist[t] + 2);
    }
  }
  return out;
}

bool switches_connected_bfs(const HostSwitchGraph& g) {
  if (g.num_switches() == 0) return true;
  std::vector<std::uint32_t> dist;
  std::vector<SwitchId> queue;
  bfs_from(g, 0, dist, queue);
  return queue.size() == g.num_switches();
}

std::string check_graph(const HostSwitchGraph& g, std::uint32_t n, std::uint32_t m,
                        std::uint32_t r, bool regular) {
  if (g.num_hosts() != n || g.num_switches() != m || g.radix() != r) {
    return cat("graph is (n, m, r) = (", g.num_hosts(), ", ", g.num_switches(),
               ", ", g.radix(), "), expected (", n, ", ", m, ", ", r, ")");
  }
  for (HostId h = 0; h < n; ++h) {
    if (g.host_switch(h) >= m) return cat("host ", h, " sits on no switch");
  }
  const std::vector<std::uint64_t> hosts = count_hosts(g);
  std::vector<SwitchId> seen;
  for (SwitchId s = 0; s < m; ++s) {
    seen.assign(g.neighbors(s).begin(), g.neighbors(s).end());
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      return cat("switch ", s, " has a multi-edge");
    }
    for (const SwitchId t : seen) {
      if (t == s) return cat("switch ", s, " has a loop");
      if (t >= m) return cat("switch ", s, " links to missing switch ", t);
      const auto back = g.neighbors(t);
      if (std::find(back.begin(), back.end(), s) == back.end()) {
        return cat("edge ", s, "-", t, " is one-sided");
      }
    }
    if (seen.size() + hosts[s] > r) {
      return cat("switch ", s, " uses ", seen.size() + hosts[s], " ports > r=", r);
    }
    if (regular && hosts[s] * m != n) {
      return cat("regular graph: switch ", s, " holds ", hosts[s], " hosts, not n/m");
    }
  }
  return {};
}

std::string check_metrics(const HostSwitchGraph& g, const orp::HostMetrics& reported) {
  const BfsMetrics bfs = bfs_host_metrics(g);
  if (bfs.unreachable_pairs != 0) return "graph is disconnected";
  if (!reported.connected) return "reported disconnected, BFS finds it connected";
  if (reported.total_length != bfs.total_length) {
    return cat("total length ", reported.total_length, " != BFS ", bfs.total_length);
  }
  if (reported.diameter != bfs.diameter) {
    return cat("diameter ", reported.diameter, " != BFS ", bfs.diameter);
  }
  const double haspl = static_cast<double>(bfs.total_length) /
                       static_cast<double>(bfs.connected_pairs);
  if (!close(reported.h_aspl, haspl, 1e-12)) {
    return cat("h-ASPL ", reported.h_aspl, " != BFS ", haspl);
  }
  const double bound = orp::haspl_lower_bound(g.num_hosts(), g.radix());
  if (reported.h_aspl < bound - 1e-12) {
    return cat("h-ASPL ", reported.h_aspl, " below the Theorem 2 bound ", bound);
  }
  const std::uint32_t dbound = orp::diameter_lower_bound(g.num_hosts(), g.radix());
  if (reported.diameter < dbound) {
    return cat("diameter ", reported.diameter, " below the Theorem 1 bound ", dbound);
  }
  return {};
}

std::string check_cut(const HostSwitchGraph& g, std::uint32_t parts,
                      const orp::PartitionResult& partition,
                      std::uint64_t reported_cut) {
  const std::uint32_t n = g.num_hosts();
  const std::uint32_t m = g.num_switches();
  const auto& part = partition.assignment;
  if (part.size() != std::size_t{n} + m) return "assignment does not cover n + m vertices";
  std::vector<std::uint64_t> weight(parts, 0);
  for (const std::uint32_t p : part) {
    if (p >= parts) return cat("vertex assigned to part ", p, " >= P=", parts);
    ++weight[p];
  }
  // Vertices [0, n) are hosts, [n, n + m) switches; every link weighs 1.
  std::uint64_t cut = 0;
  for (HostId h = 0; h < n; ++h) {
    const SwitchId s = g.host_switch(h);
    if (s != HostSwitchGraph::kDetached && part[h] != part[n + s]) ++cut;
  }
  for (SwitchId s = 0; s < m; ++s) {
    for (const SwitchId t : g.neighbors(s)) {
      if (s < t && part[n + s] != part[n + t]) ++cut;
    }
  }
  if (cut != partition.edge_cut) {
    return cat("assignment cuts ", cut, " links, partition_graph says ", partition.edge_cut);
  }
  if (cut != reported_cut) {
    return cat("host_switch_cut ", reported_cut, " != recount ", cut);
  }
  if (partition.part_weights != weight) return "part weights do not match the assignment";
  // Each level of recursive bisection caps a side at 5% over its target
  // (rounded up, on a target rounded to the nearest vertex) and leaves the
  // other side at least its target minus 5% of the heavier one's; along any
  // path the side fractions multiply to 1/P.
  const double levels = std::ceil(std::log2(static_cast<double>(parts)));
  const double ideal = static_cast<double>(n + m) / parts;
  const double slack = 2.0 * levels;
  for (std::uint32_t p = 0; p < parts; ++p) {
    const double w = static_cast<double>(weight[p]);
    if (w > ideal * std::pow(1.05, levels) + slack ||
        w < ideal * std::pow(0.90, levels) - slack) {
      return cat("part ", p, " weighs ", w, ", ideal ", ideal, " (unbalanced)");
    }
  }
  return {};
}

std::string check_cost(const HostSwitchGraph& g, const orp::NetworkCostReport& report,
                       const orp::CostModelParams& params) {
  const double m = g.num_switches();
  const double r = g.radix();
  if (report.switches != g.num_switches()) return "switch count differs from the graph";
  std::uint64_t host_cables = 0;
  for (const std::uint64_t h : count_hosts(g)) host_cables += h;
  const double e = static_cast<double>(report.electrical_cables);
  const double o = static_cast<double>(report.optical_cables);
  if (report.electrical_cables + report.optical_cables !=
      host_cables + g.num_switch_edges()) {
    return cat("cables ", e + o, " != links ", host_cables + g.num_switch_edges());
  }
  if (!close(report.switch_cost_usd,
             m * (params.switch_cost_base_usd + params.switch_cost_per_port_usd * r), 1e-12) ||
      !close(report.switch_power_w,
             m * (params.switch_power_base_w + params.switch_power_per_port_w * r), 1e-12)) {
    return "switch cost/power is not m * per-switch price";
  }
  if (!close(report.cable_power_w,
             e * params.electrical_power_w + o * params.optical_power_w, 1e-9)) {
    return "cable power is not the sum over cables";
  }
  // Invert each cable class's price to its total length: the two must add
  // up to the reported length, electrical cables stay within the limit and
  // optical ones exceed it.
  const double elec_m = (report.electrical_cable_cost_usd - e * params.electrical_cost_base_usd) /
                        params.electrical_cost_per_m_usd;
  const double opt_m = (report.optical_cable_cost_usd - o * params.optical_cost_base_usd) /
                       params.optical_cost_per_m_usd;
  const double limit_m = params.electrical_limit_cm / 100.0;
  if (!close(elec_m + opt_m, report.total_cable_m, 1e-9)) {
    return cat("cable lengths by price ", elec_m + opt_m, " m != total ", report.total_cable_m);
  }
  if (elec_m > e * limit_m * (1 + 1e-9) || opt_m < o * limit_m * (1 - 1e-9)) {
    return "electrical/optical cable lengths contradict the electrical limit";
  }
  if (!close(report.total_cost_usd(), report.switch_cost_usd +
                                          report.electrical_cable_cost_usd +
                                          report.optical_cable_cost_usd, 1e-12) ||
      !close(report.total_power_w(), report.switch_power_w + report.cable_power_w, 1e-12)) {
    return "a total is not the sum of its parts";
  }
  return {};
}

std::string check_nas(const orp::NasResult& result) {
  if (!std::isfinite(result.seconds) || result.seconds <= 0) {
    return cat(result.name, ": time ", result.seconds, " is not finite and positive");
  }
  if (!(result.comm_seconds >= 0) || result.comm_seconds > result.seconds * (1 + 1e-12)) {
    return cat(result.name, ": comm ", result.comm_seconds, " s outside [0, ",
               result.seconds, "]");
  }
  if (!(result.gflops_total > 0) ||
      !close(result.mops_per_second, result.gflops_total * 1e3 / result.seconds, 1e-12)) {
    return cat(result.name, ": Mop/s ", result.mops_per_second, " != work / time");
  }
  return {};
}

std::string check_machine(orp::Machine& machine, const HostSwitchGraph& g,
                          const std::vector<HostId>& rank_to_host) {
  const orp::SimParams& p = machine.params();
  const orp::Rank ranks = machine.num_ranks();
  if (ranks < 10) return "machine too small to probe";
  // Host distance from the benchmark's BFS: routes are shortest paths.
  std::vector<std::uint32_t> dist;
  std::vector<SwitchId> queue;
  const auto host_of = [&](orp::Rank rank) {
    return rank_to_host.empty() ? rank : rank_to_host[rank];
  };
  const orp::Rank dst = ranks - 1;
  const SwitchId dst_switch = g.host_switch(host_of(dst));
  bfs_from(g, dst_switch, dist, queue);
  const auto hops = [&](orp::Rank src) -> std::uint32_t {
    const SwitchId s = g.host_switch(host_of(src));
    return s == dst_switch ? 2 : dist[s] + 2;
  };
  const std::uint64_t bytes = 1 << 20;
  const double ser = static_cast<double>(bytes) / p.link_bandwidth;

  machine.reset();
  if (machine.route_hops(0, dst) != hops(0)) {
    return cat("route 0->", dst, " has ", machine.route_hops(0, dst),
               " hops, BFS says ", hops(0));
  }
  const double lone = machine.phase({{0, dst, bytes}});
  const double lone_expected = p.mpi_overhead + hops(0) * p.hop_latency + ser;
  if (!close(lone, lone_expected, 1e-9)) {
    return cat("lone message took ", lone, " s, expected ", lone_expected);
  }
  constexpr orp::Rank k = 8;
  std::vector<orp::Message> incast;
  std::uint32_t max_hops = 0;
  for (orp::Rank src = 1; src <= k; ++src) {
    incast.push_back({src, dst, bytes});
    max_hops = std::max(max_hops, hops(src));
  }
  const double shared = machine.phase(incast);
  const double shared_expected = p.mpi_overhead + max_hops * p.hop_latency + k * ser;
  machine.reset();
  if (!close(shared, shared_expected, 1e-9)) {
    return cat(k, " messages into one rank took ", shared, " s, expected ",
               shared_expected);
  }
  return {};
}

std::string check_degraded(const HostSwitchGraph& g, const orp::FaultSet& faults,
                           const orp::ResilienceReport& report) {
  const orp::DegradedGraph degraded = orp::apply_faults(g, faults);
  const HostSwitchGraph& d = degraded.graph;
  std::vector<std::uint8_t> dead(g.num_switches(), 0);
  for (const SwitchId s : faults.failed_switches) dead[s] = 1;
  // Surviving links: every healthy link not failed and not on a dead switch.
  std::uint64_t expected_links = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (const SwitchId t : g.neighbors(s)) {
      if (s > t || dead[s] || dead[t]) continue;
      const bool failed = std::binary_search(faults.failed_links.begin(),
                                             faults.failed_links.end(),
                                             std::make_pair(s, t));
      if (!failed) {
        ++expected_links;
        if (!d.has_switch_edge(s, t)) return cat("surviving link ", s, "-", t, " is missing");
      }
    }
  }
  if (d.num_switch_edges() != expected_links) {
    return cat("degraded graph has ", d.num_switch_edges(), " links, expected ",
               expected_links);
  }
  std::uint32_t live = 0;
  for (HostId h = 0; h < g.num_hosts(); ++h) {
    const bool alive = !dead[g.host_switch(h)];
    if (d.host_attached(h) != alive) return cat("host ", h, " attachment is wrong");
    live += alive;
  }
  const BfsMetrics bfs = bfs_host_metrics(d);
  if (report.live_hosts != live || report.connected_pairs != bfs.connected_pairs ||
      report.unreachable_pairs != bfs.unreachable_pairs ||
      report.live_hosts_connected != (bfs.unreachable_pairs == 0)) {
    return cat("report pairs ", report.connected_pairs, "/", report.unreachable_pairs,
               " != BFS ", bfs.connected_pairs, "/", bfs.unreachable_pairs);
  }
  if (bfs.connected_pairs == 0) return {};
  const double haspl = static_cast<double>(bfs.total_length) /
                       static_cast<double>(bfs.connected_pairs);
  if (report.diameter != bfs.diameter || !close(report.h_aspl, haspl, 1e-12)) {
    return cat("degraded h-ASPL/diameter ", report.h_aspl, "/", report.diameter,
               " != BFS ", haspl, "/", bfs.diameter);
  }
  return {};
}

std::string check_zero_rate_point(const orp::ResilienceCurvePoint& point) {
  if (point.trials == 0 || point.partitioned_trials != 0 ||
      point.p50_haspl_inflation != 1.0 || point.p90_haspl_inflation != 1.0 ||
      point.max_haspl_inflation != 1.0 || point.mean_reachable_fraction != 1.0 ||
      point.min_reachable_fraction != 1.0 || point.mean_dead_host_fraction != 0.0) {
    return cat("zero-rate sweep is not exactly healthy (p50 inflation ",
               point.p50_haspl_inflation, ")");
  }
  return {};
}

std::string check_sweep_aggregate(const HostSwitchGraph& g,
                                  const orp::ResilienceCurvePoint& point,
                                  const std::vector<orp::ResilienceReport>& reports) {
  if (point.trials != reports.size() || reports.empty()) return "trial count differs";
  const BfsMetrics healthy = bfs_host_metrics(g);
  const double base = static_cast<double>(healthy.total_length) /
                      static_cast<double>(healthy.connected_pairs);
  const double all_pairs = static_cast<double>(g.num_hosts()) * (g.num_hosts() - 1) / 2;
  std::uint32_t partitioned = 0;
  double max_inflation = 0.0, reach_sum = 0.0;
  for (const auto& report : reports) {
    partitioned += !report.live_hosts_connected;
    max_inflation = std::max(max_inflation, report.h_aspl / base);
    reach_sum += static_cast<double>(report.connected_pairs) / all_pairs;
  }
  if (point.partitioned_trials != partitioned) return "partitioned trial count differs";
  if (!close(point.max_haspl_inflation, max_inflation, 1e-12)) {
    return cat("max inflation ", point.max_haspl_inflation, " != ", max_inflation);
  }
  if (!close(point.mean_reachable_fraction, reach_sum / static_cast<double>(reports.size()), 1e-12)) {
    return "mean reachable fraction differs";
  }
  if (point.p50_haspl_inflation < 1.0 - 1e-12 ||
      point.p50_haspl_inflation > max_inflation * (1 + 1e-12)) {
    return "p50 inflation outside [1, max]";
  }
  return {};
}

}  // namespace e2e
