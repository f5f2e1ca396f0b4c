#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace e2e {
namespace {

using orp::HostSwitchGraph;
using orp::Machine;
using Clock = std::chrono::steady_clock;

// ---- inputs -------------------------------------------------------------

// design: the annealing move budget of every instance, the quick budget
// the CI profiling step gives the figure benches (ORP_SA_ITERS=5000). The
// figure benches default to 20,000 moves; see README.md for that budget.
constexpr std::uint64_t kDesignIterations = 5000;

// nas: ranks and radix of both networks.
constexpr std::uint32_t kNasHosts = 256;
constexpr std::uint32_t kNasRadix = 12;

// analyze: hosts, Monte-Carlo trials, collective sizes and rounds. The
// fault specs and the 40 trials per spec are abl_fault_resilience's. Every
// collective moves 4096 B per message: abl_fault_resilience times its
// faulted alltoall at 4096 B per pair, and the IS skeleton and microbench
// run allreduce(4096). No caller in the repository runs allgather or bcast,
// so they take the same size.
constexpr std::uint32_t kAnalyzeHosts = 1024;
constexpr std::uint32_t kTrials = 40;         ///< per (network, fault spec)
constexpr std::uint32_t kSweepTrials = 4;     ///< sweep_point cross-check
constexpr double kCollectiveLinkRate = 0.02;  ///< abl_fault_resilience's rate
constexpr std::uint64_t kCollectiveBytes = 4096;
constexpr int kCollectiveRounds = 2;  ///< each collective: one failure + repair

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (tag + 1));
  return orp::splitmix64_next(state);
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

orp::obs::MetricsSnapshot snapshot() { return orp::obs::Registry::global().snapshot(); }

// Runs one public call; a throw counts the call as failed (and is
// reported), so the round goes on with the calls that do not depend on it.
template <typename F>
bool attempt(RoundResult& r, const char* what, F&& call) {
  ++r.attempted;
  try {
    call();
    return true;
  } catch (const std::exception& e) {
    ++r.failed;
    std::cerr << "e2e: " << what << " failed: " << e.what() << "\n";
    return false;
  }
}

// ---- design instances ---------------------------------------------------

struct DesignInstance {
  const char* name;
  const char* span;
  std::uint32_t n, r;
  std::uint32_t forced_m;  ///< 0: the m_opt optimal_switch_count picks
  bool regular;            ///< swap moves from a regular start; m | n
};

std::vector<DesignInstance> design_instances() {
  return {{"fig08", "search.solve.fig08", 1024, 24, 1024, false},
          {"mopt", "search.solve.mopt", 1024, 12, 0, false},
          {"regular", "search.solve.regular", 1024, 12, 256, true}};
}

// What solve_orp receives for an instance: the switch count is forced only
// where it differs from m_opt, so the m_opt panel takes the solver's own
// choice, as a user who asks for m_opt does.
orp::SolveOptions solve_options(const DesignInstance& inst, std::uint64_t seed) {
  orp::SolveOptions options;
  options.iterations = kDesignIterations;
  options.seed = seed;
  const std::uint32_t m_opt = orp::optimal_switch_count(inst.n, inst.r);
  if (inst.forced_m != 0 && inst.forced_m != m_opt) options.force_switch_count = inst.forced_m;
  if (inst.regular) {
    options.mode = orp::MoveMode::kSwap;
    options.regular_start = true;
  }
  return options;
}

std::uint32_t switch_count(const DesignInstance& inst) {
  return inst.forced_m != 0 ? inst.forced_m : orp::optimal_switch_count(inst.n, inst.r);
}

HostSwitchGraph start_graph(const DesignInstance& inst, std::uint64_t seed) {
  orp::Xoshiro256 rng(seed);
  const std::uint32_t m = switch_count(inst);
  return inst.regular ? orp::random_regular_host_switch_graph(inst.n, m, inst.r, rng)
                      : orp::random_host_switch_graph(inst.n, m, inst.r, rng);
}

std::string haspl_name(const DesignInstance& inst) {
  return std::string("haspl_") + inst.name;
}

// nas and analyze search nothing: their haspl_* are the median h-ASPL of
// each instance's seeded start graphs over the first rounds' seeds, checked
// against BFS. They depend only on the seed and the random initializers.
std::map<std::string, double> start_haspl(std::uint64_t seed, Checker& checker) {
  std::map<std::string, std::vector<double>> values;
  const auto instances = design_instances();
  for (std::uint64_t round = 0; round < kQualityRounds; ++round) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& inst = instances[i];
      const HostSwitchGraph g = start_graph(inst, derive(derive(seed, round), 20 + i));
      const orp::HostMetrics metrics = orp::compute_host_metrics(g);
      const std::string what = std::string("start graph ") + inst.name;
      checker.expect(what, check_graph(g, inst.n, switch_count(inst), inst.r, inst.regular));
      checker.expect(what, check_metrics(g, metrics));
      values[haspl_name(inst)].push_back(metrics.h_aspl);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : values) out[name] = quantile(v, 0.5);
  return out;
}

class DesignWorkload final : public Workload {
 public:
  explicit DesignWorkload(std::uint64_t seed) : seed_(seed) {}

  RoundResult round(std::uint64_t index, Timings& t, Checker& checker) override {
    const std::uint64_t seed = derive(seed_, index);
    const auto instances = design_instances();
    RoundResult r;
    const auto before = snapshot();
    const auto start = Clock::now();
    // Set-up: what solve_orp receives, with the switch count picked by
    // optimal_switch_count. solve_orp builds its start graph itself.
    std::vector<std::optional<orp::SolveOptions>> options(instances.size());
    {
      orp::obs::Span stage("pipeline.build", "pipeline");
      for (std::size_t i = 0; i < instances.size(); ++i) {
        attempt(r, "solve options", [&] {
          Timed timed(t, "build.solve_options");
          options[i] = solve_options(instances[i], derive(seed, 10 + i));
        });
      }
    }
    r.setup_s = since(start);
    std::vector<std::optional<orp::SolveResult>> results(instances.size());
    const auto ops = Clock::now();
    {
      orp::obs::Span stage("pipeline.solve", "pipeline");
      for (std::size_t i = 0; i < instances.size(); ++i) {
        const DesignInstance& inst = instances[i];
        if (!options[i]) continue;
        attempt(r, inst.name, [&] {
          Timed timed(t, inst.span);
          results[i] = orp::solve_orp(inst.n, inst.r, *options[i]);
        });
      }
    }
    r.ops_s = since(ops);
    r.counters = diff(before, snapshot());

    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (!results[i]) continue;
      const DesignInstance& inst = instances[i];
      const orp::SolveResult& res = *results[i];
      const std::string what = std::string("design ") + inst.name;
      const std::uint32_t m = switch_count(inst);
      checker.expect(what, check_graph(res.graph, inst.n, m, inst.r, inst.regular));
      checker.expect(what, check_metrics(res.graph, res.metrics));
      checker.expect(what, res.switch_count == m ? "" : "switch count differs");
      checker.expect(what, res.interrupted ? "solve was interrupted" : "");
      checker.expect(what, res.used_clique ? "solved by the clique shortcut" : "");
      if (index < kQualityRounds) haspl_[haspl_name(inst)].push_back(res.metrics.h_aspl);
      if (index == 0 && inst.name == std::string("fig08")) {
        std::uint32_t unused = 0;
        for (orp::SwitchId s = 0; s < res.graph.num_switches(); ++s) {
          unused += res.graph.hosts_on(s) == 0;
        }
        std::ostringstream os;
        os << "design fig08 unused-switch share "
           << static_cast<double>(unused) / res.graph.num_switches() << "\n";
        summary_ = os.str();
      }
    }
    return r;
  }

  std::map<std::string, double> quality(Checker& checker) override {
    std::map<std::string, double> out;
    for (const auto& inst : design_instances()) {
      const auto& values = haspl_[haspl_name(inst)];
      checker.expect("design quality", values.size() == kQualityRounds
                                           ? "" : "too few rounds solved the instance");
      out[haspl_name(inst)] = quantile(values, 0.5);
    }
    return out;
  }

  std::string summary() const override { return summary_; }

 private:
  std::uint64_t seed_;
  std::map<std::string, std::vector<double>> haspl_;
  std::string summary_;
};

// ---- shared network builders -----------------------------------------------

HostSwitchGraph proposed_graph(std::uint32_t n, std::uint32_t r, std::uint64_t seed) {
  orp::Xoshiro256 rng(seed);
  return orp::random_host_switch_graph(n, orp::optimal_switch_count(n, r), r, rng);
}

struct Network {
  const char* name;
  HostSwitchGraph graph;
  std::vector<orp::HostId> rank_to_host;  ///< empty: identity
  std::unique_ptr<Machine> machine;
};

// Builds a topology (host time under "topo.build"); false when it threw.
template <typename Build>
bool add_network(Timings& t, RoundResult& r, std::vector<Network>& nets, const char* name,
                 Build&& build) {
  return attempt(r, name, [&] {
    Timed timed(t, "topo.build");
    nets.push_back({name, build(), {}, {}});
  });
}

void build_machines(Timings& t, RoundResult& r, std::vector<Network>& nets,
                    const orp::SimParams& params) {
  for (Network& net : nets) {
    attempt(r, "machine", [&] {
      Timed timed(t, "sim.machine_build");
      net.machine = std::make_unique<Machine>(net.graph, params, net.rank_to_host);
    });
  }
}

// ---- nas ----------------------------------------------------------------

const char* nas_span(orp::NasKernel kernel) {
  switch (kernel) {
    case orp::NasKernel::kEP: return "sim.nas.EP";
    case orp::NasKernel::kIS: return "sim.nas.IS";
    case orp::NasKernel::kFT: return "sim.nas.FT";
    case orp::NasKernel::kMG: return "sim.nas.MG";
    case orp::NasKernel::kCG: return "sim.nas.CG";
    case orp::NasKernel::kLU: return "sim.nas.LU";
    case orp::NasKernel::kSP: return "sim.nas.SP";
    case orp::NasKernel::kBT: return "sim.nas.BT";
  }
  return "sim.nas.unknown";
}

class NasWorkload final : public Workload {
 public:
  explicit NasWorkload(std::uint64_t seed) : seed_(seed) {}

  RoundResult round(std::uint64_t index, Timings& t, Checker& checker) override {
    const std::uint64_t seed = derive(seed_, index);
    RoundResult r;
    const auto before = snapshot();
    const auto start = Clock::now();
    std::vector<Network> nets;
    {
      orp::obs::Span stage("pipeline.build", "pipeline");
      // Ranks of the proposed network follow the paper's depth-first host
      // order (§6.2.1).
      if (add_network(t, r, nets, "proposed", [&] {
            return proposed_graph(kNasHosts, kNasRadix, derive(seed, 30));
          })) {
        nets.back().rank_to_host = orp::dfs_host_order(nets.back().graph);
      }
      add_network(t, r, nets, "3-D torus", [] {
        // The smallest 3-D torus at this radix that carries every host.
        std::uint32_t base = 2;
        while (orp::torus_host_capacity({3, base, kNasRadix}) < kNasHosts) ++base;
        return orp::build_torus({3, base, kNasRadix}, kNasHosts);
      });
      build_machines(t, r, nets, orp::SimParams{});
    }
    r.setup_s = since(start);

    std::vector<std::vector<std::optional<orp::NasResult>>> results(nets.size());
    const auto ops = Clock::now();
    {
      orp::obs::Span stage("pipeline.simulate", "pipeline");
      for (std::size_t i = 0; i < nets.size(); ++i) {
        for (const orp::NasKernel kernel : orp::all_nas_kernels()) {
          auto& slot = results[i].emplace_back();
          if (!nets[i].machine) continue;
          attempt(r, nas_span(kernel), [&] {
            Timed timed(t, nas_span(kernel));
            slot = orp::run_nas_kernel(*nets[i].machine, kernel);
          });
        }
      }
    }
    r.ops_s = since(ops);
    r.counters = diff(before, snapshot());

    for (std::size_t i = 0; i < nets.size(); ++i) {
      const std::string what = std::string("nas ") + nets[i].name;
      if (nets[i].machine) {
        checker.expect(what, check_machine(*nets[i].machine, nets[i].graph,
                                           nets[i].rank_to_host));
      }
      for (const auto& res : results[i]) {
        if (res) checker.expect(what, check_nas(*res));
      }
    }
    if (index == 0 && results.size() == 2) summary_ = make_summary(results);
    return r;
  }

  std::map<std::string, double> quality(Checker& checker) override {
    return start_haspl(seed_, checker);
  }

  std::string summary() const override { return summary_; }

 private:
  static std::string make_summary(
      const std::vector<std::vector<std::optional<orp::NasResult>>>& results) {
    std::ostringstream os;
    double sum = 0.0;
    int count = 0;
    for (std::size_t k = 0; k < results[0].size(); ++k) {
      if (!results[0][k] || !results[1][k]) continue;
      const double ratio = results[0][k]->mops_per_second / results[1][k]->mops_per_second;
      os << "nas " << results[0][k]->name << " proposed/torus Mop/s " << ratio << "\n";
      sum += ratio;
      ++count;
    }
    os << "nas mean proposed/torus Mop/s " << (count ? sum / count : 0.0) << "\n";
    return os.str();
  }

  std::uint64_t seed_;
  std::string summary_;
};

// ---- analyze ------------------------------------------------------------

struct NamedSpec {
  const char* name;
  orp::FaultSpec spec;
};

std::vector<NamedSpec> fault_specs() {
  orp::FaultSpec links;
  links.link_failure_rate = 0.05;
  orp::FaultSpec switches;
  switches.switch_failure_rate = 0.05;
  orp::FaultSpec cabinets;
  cabinets.cabinet_outage_rate = 0.10;
  cabinets.switches_per_cabinet = 4;
  return {{"links 5%", links}, {"switches 5%", switches}, {"cabinets 10%", cabinets}};
}

const char* const kCollectiveSpans[] = {"sim.fault.alltoall", "sim.fault.allreduce",
                                        "sim.fault.allgather", "sim.fault.bcast"};

double run_collective(Machine& m, int which) {
  switch (which) {
    case 0: return m.alltoall(kCollectiveBytes);
    case 1: return m.allreduce(kCollectiveBytes);
    case 2: return m.allgather(kCollectiveBytes);
    default: return m.bcast(kCollectiveBytes);
  }
}

// A lower bound on a collective's simulated time: every phase with a
// message lasts at least mpi_overhead plus two hops, and the pairwise
// all-to-all runs ranks - 1 phases, the tree/doubling algorithms log2(ranks).
double collective_lower_bound(const Machine& m, int which) {
  const double phase = m.params().mpi_overhead + 2 * m.params().hop_latency;
  const double ranks = m.num_ranks();
  return phase * (which == 0 ? ranks - 1 : std::floor(std::log2(ranks)));
}

// A seeded link-only failure set that keeps the switch graph connected, so
// every flow of the collectives keeps a route.
std::vector<std::pair<orp::SwitchId, orp::SwitchId>> connected_link_draw(
    const HostSwitchGraph& g, std::uint64_t seed, Checker& checker) {
  for (std::uint64_t draw = 0; draw < 64; ++draw) {
    orp::FaultSpec spec;
    spec.link_failure_rate = kCollectiveLinkRate;
    spec.seed = derive(seed, draw);
    const orp::FaultSet faults = orp::draw_faults(g, spec);
    if (faults.failed_links.empty()) continue;
    if (switches_connected_bfs(orp::apply_faults(g, faults).graph)) return faults.failed_links;
  }
  checker.expect("collective faults", "no connected link-only draw in 64 seeds");
  return {};
}

bool same_links(const HostSwitchGraph& a, const HostSwitchGraph& b) {
  if (a.num_switches() != b.num_switches() || a.num_switch_edges() != b.num_switch_edges()) {
    return false;
  }
  for (orp::SwitchId s = 0; s < a.num_switches(); ++s) {
    for (const orp::SwitchId t : a.neighbors(s)) {
      if (!b.has_switch_edge(s, t)) return false;
    }
  }
  return true;
}

class AnalyzeWorkload final : public Workload {
 public:
  explicit AnalyzeWorkload(std::uint64_t seed) : seed_(seed) {}

  RoundResult round(std::uint64_t index, Timings& t, Checker& checker) override {
    const std::uint64_t seed = derive(seed_, index);
    RoundResult r;
    const auto before = snapshot();
    const auto start = Clock::now();
    std::vector<Network> nets;
    {
      orp::obs::Span stage("pipeline.build", "pipeline");
      if (add_network(t, r, nets, "proposed", [&] {
            return proposed_graph(kAnalyzeHosts, 15, derive(seed, 40));
          })) {
        nets.back().rank_to_host = orp::dfs_host_order(nets.back().graph);
      }
      add_network(t, r, nets, "5-D torus",
                  [] { return orp::build_torus({5, 3, 15}, kAnalyzeHosts); });
      add_network(t, r, nets, "dragonfly", [] {
        std::uint32_t a = 2;
        while (orp::dragonfly_host_capacity({a}) < kAnalyzeHosts) a += 2;
        return orp::build_dragonfly({a}, kAnalyzeHosts);
      });
      add_network(t, r, nets, "fat-tree", [] {
        std::uint32_t k = 2;
        while (orp::fattree_host_capacity({k}) < kAnalyzeHosts) k += 2;
        return orp::build_fattree({k}, kAnalyzeHosts);
      });
      orp::SimParams ecmp;
      ecmp.routing = orp::RoutingPolicy::kEcmp;
      build_machines(t, r, nets, ecmp);
    }
    r.setup_s = since(start);
    const auto ops = Clock::now();

    // (b) bandwidth: partition cuts P = 2..16.
    const std::uint64_t cut_seed = derive(seed, 41);
    std::vector<std::vector<std::uint64_t>> cuts(nets.size());
    {
      orp::obs::Span stage("pipeline.partition", "pipeline");
      for (std::size_t i = 0; i < nets.size(); ++i) {
        for (std::uint32_t parts = 2; parts <= 16; ++parts) {
          attempt(r, "host_switch_cut", [&] {
            Timed timed(t, "partition.cut");
            cuts[i].push_back(orp::host_switch_cut(nets[i].graph, parts, cut_seed));
          });
        }
      }
    }
    // (c)/(d) power and cost.
    std::vector<std::optional<orp::NetworkCostReport>> costs(nets.size());
    {
      orp::obs::Span stage("pipeline.cost", "pipeline");
      for (std::size_t i = 0; i < nets.size(); ++i) {
        attempt(r, "evaluate_network_cost", [&] {
          Timed timed(t, "cost.evaluate");
          costs[i] = orp::evaluate_network_cost(nets[i].graph);
        });
      }
    }
    // Monte-Carlo fault trials one by one, then sweep_point on the same
    // seeds (cross-checked against the trials) and at zero rate.
    {
      orp::obs::Span stage("pipeline.fault", "pipeline");
      const auto specs = fault_specs();
      for (std::size_t i = 0; i < nets.size(); ++i) {
        const HostSwitchGraph& g = nets[i].graph;
        const std::string what = std::string("fault ") + nets[i].name;
        std::vector<orp::ResilienceReport> link_reports;
        for (std::size_t j = 0; j < specs.size(); ++j) {
          const std::uint64_t spec_seed = derive(seed, 100 + 10 * i + j);
          for (std::uint32_t trial = 0; trial < kTrials; ++trial) {
            orp::FaultSpec spec = specs[j].spec;
            spec.seed = orp::trial_seed(spec_seed, trial);
            orp::FaultSet faults;
            std::optional<orp::ResilienceReport> report;
            {
              Timed timed(t, "fault.trial");
              attempt(r, "draw_faults", [&] { faults = orp::draw_faults(g, spec); });
              attempt(r, "evaluate_degraded", [&] {
                Timed eval(t, "fault.degraded_eval");
                report = orp::evaluate_degraded(g, faults);
              });
            }
            if (!report) continue;
            // Every fourth trial is checked against the benchmark's BFS.
            if (trial % 4 == 0) {
              checker.expect(what + " " + specs[j].name, check_degraded(g, faults, *report));
            }
            if (j == 0 && trial < kSweepTrials) link_reports.push_back(*report);
          }
        }
        orp::FaultSpec links = specs[0].spec;
        links.seed = derive(seed, 100 + 10 * i);
        attempt(r, "sweep_point", [&] {
          orp::ResilienceCurvePoint zero, point;
          {
            Timed timed(t, "fault.sweep");
            zero = orp::sweep_point(g, orp::FaultSpec{}, 2);
          }
          {
            Timed timed(t, "fault.sweep");
            point = orp::sweep_point(g, links, kSweepTrials);
          }
          checker.expect(what + " zero rate", check_zero_rate_point(zero));
          checker.expect(what + " sweep", check_sweep_aggregate(g, point, link_reports));
        });
      }
    }
    // Collectives on the ECMP machines, with a link failure and its repair
    // striking inside every collective.
    std::vector<std::uint64_t> injected(nets.size(), 0);
    {
      orp::obs::Span stage("pipeline.simulate", "pipeline");
      for (std::size_t i = 0; i < nets.size(); ++i) {
        if (!nets[i].machine) continue;
        Machine& m = *nets[i].machine;
        const auto links = connected_link_draw(nets[i].graph, derive(seed, 200 + i), checker);
        orp::Xoshiro256 rng(derive(seed, 300 + i));
        std::size_t next_link = 0;
        for (int round = 0; round < kCollectiveRounds; ++round) {
          for (int c = 0; c < 4; ++c) {
            // Both events fall before the collective's lower-bound end, so
            // they strike inside it.
            const double bound = collective_lower_bound(m, c);
            if (!links.empty()) {
              const auto [a, b] = links[next_link++ % links.size()];
              const double down = m.now() + (0.05 + 0.4 * rng.uniform()) * bound;
              const double up = down + (0.05 + 0.4 * rng.uniform()) * bound;
              m.inject_faults({{down, orp::FaultEvent::Kind::kLinkDown, a, b},
                               {up, orp::FaultEvent::Kind::kLinkUp, a, b}});
              injected[i] += 2;
            }
            double elapsed = 0.0;
            attempt(r, kCollectiveSpans[c], [&] {
              Timed timed(t, kCollectiveSpans[c]);
              elapsed = run_collective(m, c);
            });
            checker.expect(std::string(kCollectiveSpans[c]) + " " + nets[i].name,
                           elapsed >= bound ? "" : "collective beat its lower bound");
          }
        }
      }
    }
    r.ops_s = since(ops);
    r.counters = diff(before, snapshot());

    for (std::size_t i = 0; i < nets.size(); ++i) {
      const std::string what = std::string("analyze ") + nets[i].name;
      const HostSwitchGraph& g = nets[i].graph;
      if (cuts[i].size() == 15) {
        const orp::CsrGraph csr = orp::csr_from_host_switch_graph(g);
        for (std::uint32_t parts = 2; parts <= 16; ++parts) {
          checker.expect(what + " cut P=" + std::to_string(parts),
                         check_cut(g, parts, orp::partition_graph(csr, parts, cut_seed),
                                   cuts[i][parts - 2]));
        }
      }
      if (costs[i]) checker.expect(what + " cost", check_cost(g, *costs[i]));
      if (nets[i].machine) {
        const orp::FaultStats& stats = nets[i].machine->fault_stats();
        checker.expect(what + " collectives",
                       stats.flows_failed != 0 ? "flows failed on a connected network"
                       : stats.events_applied != injected[i]
                           ? "not every fault event struck inside the collectives"
                       : stats.links_repaired * 2 != injected[i] ? "not every link was repaired"
                       : !same_links(g, nets[i].machine->graph())
                           ? "the repaired network differs from the healthy one"
                           : "");
        checker.expect(what + " machine",
                       check_machine(*nets[i].machine, g, nets[i].rank_to_host));
      }
    }
    if (index == 0) summary_ = make_summary(nets, cuts, costs);
    return r;
  }

  std::map<std::string, double> quality(Checker& checker) override {
    return start_haspl(seed_, checker);
  }

  std::string summary() const override { return summary_; }

 private:
  static std::string make_summary(
      const std::vector<Network>& nets, const std::vector<std::vector<std::uint64_t>>& cuts,
      const std::vector<std::optional<orp::NetworkCostReport>>& costs) {
    std::ostringstream os;
    for (std::size_t i = 1; i < nets.size(); ++i) {
      if (cuts[0].empty() || cuts[i].empty() || !costs[0] || !costs[i]) continue;
      os << "analyze proposed/" << nets[i].name << " P=2 cut "
         << static_cast<double>(cuts[0][0]) / static_cast<double>(cuts[i][0])
         << ", switches " << nets[0].graph.num_switches() << "/" << nets[i].graph.num_switches()
         << ", cost " << costs[0]->total_cost_usd() / costs[i]->total_cost_usd()
         << ", power " << costs[0]->total_power_w() / costs[i]->total_power_w() << "\n";
    }
    return os.str();
  }

  std::uint64_t seed_;
  std::string summary_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "design") return std::make_unique<DesignWorkload>(seed);
  if (name == "nas") return std::make_unique<NasWorkload>(seed);
  if (name == "analyze") return std::make_unique<AnalyzeWorkload>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2e
