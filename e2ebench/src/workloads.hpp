#pragma once
// The benchmark's three workloads (see README.md for their make-up):
//   design  — solve_orp on the Fig. 8 instance, the Fig. 5 panel at m_opt
//             and the same panel as a regular graph, at fixed budgets;
//   nas     — the eight NAS skeletons at full class iterations on 256
//             ranks, proposed network vs 3-D torus;
//   analyze — Figs. 9-11 (b)-(d) on four 1024-host networks: partition
//             cuts, cost, Monte-Carlo fault trials, and collectives on ECMP
//             machines with link failures and repairs inside the rounds.
//
// Round k of a run draws fresh inputs from (run seed, k), so a run measures
// the toolkit over several inputs and the same seed gives the same inputs.
// A round builds the inputs (the timed set-up), runs every operation once
// (timed), then checks every output (untimed). A traced run passes the same
// index to an untraced round and the traced round after it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "layers.hpp"

namespace e2e {

/// haspl_* are medians over the inputs of rounds 0 .. kQualityRounds - 1,
/// so they repeat exactly at a seed whatever the run length.
constexpr std::uint64_t kQualityRounds = 3;

struct RoundResult {
  double setup_s = 0.0;  ///< host time preparing inputs, networks, machines
  double ops_s = 0.0;    ///< host time of the operations after set-up
  std::uint64_t attempted = 0;  ///< public calls made (set-up included)
  std::uint64_t failed = 0;     ///< calls that threw
  CounterDelta counters;        ///< registry deltas over set-up + operations
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Round `index` on the inputs drawn for it.
  virtual RoundResult round(std::uint64_t index, Timings& timings, Checker& checker) = 0;
  /// haspl_fig08 / haspl_mopt / haspl_regular, medians over the inputs of
  /// the first kQualityRounds rounds of an untraced run. On `design` these
  /// are the h-ASPLs solve_orp reached; the other workloads run no search
  /// and compute (here, after the rounds) the h-ASPL of the same instances'
  /// seeded start graphs.
  virtual std::map<std::string, double> quality(Checker& checker) = 0;
  /// Reference outputs a reader compares with the paper, one per line.
  virtual std::string summary() const = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace e2e
