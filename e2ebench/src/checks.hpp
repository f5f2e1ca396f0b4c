#pragma once
// The benchmark's correctness checks. Each compares an output of the
// toolkit against a computation made here, apart from the library (own
// BFS, own edge-cut count, own cost arithmetic, closed-form message
// times), or against a property the method must have (Theorem 1/2 lower
// bounds, balanced parts, exact inflation 1 at zero fault rate). None of
// them compares against stored output.
//
// Every check returns an empty string when the output passes and a
// one-line reason when it does not; Checker collects the reasons.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "orp.hpp"

namespace e2e {

/// Collects failed checks; `ok()` is the run's `correct` flag.
class Checker {
 public:
  /// Records `reason` under `what` when it is non-empty.
  void expect(const std::string& what, const std::string& reason);
  bool ok() const noexcept { return failures_.empty(); }
  std::uint64_t checks() const noexcept { return checks_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::uint64_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Host-pair distance totals of a host-switch graph, computed by a plain
/// BFS per switch. Pairs follow the library's connected-pairs contract:
/// only attached hosts count, unreachable pairs are tallied apart.
struct BfsMetrics {
  std::uint64_t total_length = 0;
  std::uint64_t connected_pairs = 0;
  std::uint64_t unreachable_pairs = 0;
  std::uint32_t diameter = 0;
};
BfsMetrics bfs_host_metrics(const orp::HostSwitchGraph& g);

/// True when the switch subgraph is connected (BFS from switch 0).
bool switches_connected_bfs(const orp::HostSwitchGraph& g);

/// Structure of a solved graph: order, size and radix as requested, every
/// host on one switch, port budget kept, no loops or multi-edges, a
/// symmetric adjacency, and exactly n/m hosts per switch when `regular`.
std::string check_graph(const orp::HostSwitchGraph& g, std::uint32_t n,
                        std::uint32_t m, std::uint32_t r, bool regular);

/// A returned h-ASPL/diameter against the benchmark's BFS, and against the
/// Theorem 1 (diameter) and Theorem 2 (h-ASPL) lower bounds for (n, r).
std::string check_metrics(const orp::HostSwitchGraph& g,
                          const orp::HostMetrics& reported);

/// A host_switch_cut value against the cut the benchmark counts itself on
/// the partition_graph assignment of the same graph, part count and seed;
/// the parts must cover every vertex and be balanced.
std::string check_cut(const orp::HostSwitchGraph& g, std::uint32_t parts,
                      const orp::PartitionResult& partition,
                      std::uint64_t reported_cut);

/// A cost report against the cable/switch counts of the graph and the
/// model's unit prices: totals equal the sum of their parts.
std::string check_cost(const orp::HostSwitchGraph& g,
                       const orp::NetworkCostReport& report,
                       const orp::CostModelParams& params = {});

/// A NAS result: finite positive time, comm <= time, Mop/s = work / time.
std::string check_nas(const orp::NasResult& result);

/// Probes a healthy Machine built on `g` with `rank_to_host` (empty means
/// identity): a lone message must take
/// mpi_overhead + hops * hop_latency + bytes / bandwidth, with hops from the
/// benchmark's BFS, and k equal messages into one rank must take k times
/// the serialization time. Resets the machine clock afterwards.
std::string check_machine(orp::Machine& machine, const orp::HostSwitchGraph& g,
                          const std::vector<orp::HostId>& rank_to_host);

/// One fault trial: the ResilienceReport must match the benchmark's BFS on
/// apply_faults' surviving graph, which itself must lack every failed link
/// and every link and host of a failed switch.
std::string check_degraded(const orp::HostSwitchGraph& g,
                           const orp::FaultSet& faults,
                           const orp::ResilienceReport& report);

/// A zero-rate sweep must leave every trial exactly as healthy.
std::string check_zero_rate_point(const orp::ResilienceCurvePoint& point);

/// sweep_point's aggregate against the same trials evaluated one by one
/// (`reports`, in trial order) and the benchmark's healthy BFS h-ASPL.
std::string check_sweep_aggregate(const orp::HostSwitchGraph& g,
                                  const orp::ResilienceCurvePoint& point,
                                  const std::vector<orp::ResilienceReport>& reports);

}  // namespace e2e
