#pragma once
// Simulated annealing over host-switch graphs (§5.1–§5.2), run as a
// replica-exchange (parallel tempering) ladder of K chains.
//
// Objective: minimize h-ASPL; disconnected candidates are rejected
// outright (their h-ASPL is infinite). Three neighborhood modes:
//   kSwap           — swap operation only (regular graphs, §5.1)
//   kSwing          — single swing per step (§5.2, Fig. 3)
//   kTwoNeighborSwing — the paper's combined operation (Fig. 4): propose a
//     swing; if rejected, propose the completing swing (net effect: swap);
//     if that is also rejected, restore the original solution.
//
// Acceptance is Metropolis on the h-ASPL delta with geometric cooling.
//
// K = 1 (the default) is the paper's single §5.3 chain. With K > 1 the
// chains walk a geometric temperature ladder: ladder position 0 runs the
// one-chain schedule exactly, position k runs it scaled by ratio^k. Every
// `swap_interval` moves the chains barrier and adjacent rungs attempt
// Metropolis configuration exchanges — hot rungs tunnel between basins,
// cold rungs refine, and exchanges let good basins migrate down the
// ladder. The global best is tracked at every barrier and broadcast as a
// restart candidate to rungs whose own best has stalled.
//
// Determinism contract: the result is a pure function of (initial graph,
// options) — in particular of (seed, K) — and NEVER of the thread-pool
// size or scheduling:
//   * each chain owns its trajectory end to end (graph copy, edge list,
//     DeltaHasplEvaluator, PRNG sub-stream derived from (seed, rung));
//   * the swap schedule is fixed (alternating even/odd adjacent pairs,
//     attempted in ascending rung order with a dedicated exchange PRNG
//     stream), not completion-order driven;
//   * reductions (global best, stall restarts, the final result) scan
//     rungs in index order at single-threaded barriers.
// tests/search_parallel_test.cpp pins this down across pool sizes, and
// tests/search_annealer_test.cpp pins the K=1 trajectory to golden values.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"

namespace orp {

class ThreadPool;

enum class MoveMode { kSwap, kSwing, kTwoNeighborSwing };

/// How candidate moves are evaluated.
///   kFull  — from-scratch compute_host_metrics per candidate: the test
///            oracle for the incremental evaluator.
///   kDelta — incremental DeltaHasplEvaluator (exact, so trajectories are
///            bit-identical to kFull; guarded by Annealer.FullAndDeltaAgree).
enum class EvalStrategy { kFull, kDelta };

/// What the annealer minimizes.
enum class AnnealObjective {
  kHaspl,              ///< the paper's ORP objective
  kDiameterThenHaspl,  ///< Graph Golf's ranking: diameter first, ASPL tie-break
};

struct AnnealOptions {
  /// Total move budget. Each of the `replicas` chains runs
  /// max(1, iterations / replicas) moves.
  std::uint64_t iterations = 20000;
  AnnealObjective objective = AnnealObjective::kHaspl;
  /// Temperatures are in h-ASPL units. 0 (the default) auto-calibrates:
  /// the annealer samples random moves from the initial solution and sets
  /// T0 to ~2x the mean |delta| (so early moves are mostly accepted) and
  /// T_final to T0/1000. Explicit positive values override.
  double initial_temperature = 0.0;
  double final_temperature = 0.0;
  /// Derives every chain's PRNG sub-stream (rung 0 uses it verbatim) and
  /// the exchange stream.
  std::uint64_t seed = 1;
  MoveMode mode = MoveMode::kTwoNeighborSwing;
  EvalStrategy eval = EvalStrategy::kDelta;
  AsplKernel kernel = AsplKernel::kAuto;
  /// With one chain the pool parallelizes its metric kernel. With K > 1 it
  /// fans the chains out instead, and their kernels stay serial to avoid
  /// nested oversubscription. A null pool runs everything on the calling
  /// thread, bit-identically.
  ThreadPool* pool = nullptr;
  /// If nonzero, record a convergence sample every `trace_every` iterations.
  std::uint64_t trace_every = 0;
  /// Ladder size K. 1 is the paper's single chain.
  std::uint32_t replicas = 1;
  /// Moves each chain runs between exchange barriers.
  std::uint64_t swap_interval = 512;
  /// Adjacent-rung temperature ratio of the geometric ladder (> 1 spreads
  /// the rungs). 0 auto-picks so the hottest rung runs at 4x the base
  /// temperature regardless of K.
  double ladder_ratio = 0.0;
  /// Barriers without improvement of a rung's own best after which a
  /// non-best rung whose current state trails the global best restarts
  /// from the global best. 0 disables broadcasting.
  std::uint32_t stall_rounds = 3;
};

/// One convergence sample (recorded every `trace_every` iterations), enough
/// to re-plot an SA run: where the walk is, the best seen so far, and the
/// temperature that produced the acceptance behaviour.
struct AnnealTracePoint {
  std::uint64_t iteration = 0;
  double current_haspl = 0.0;
  double best_haspl = 0.0;
  double temperature = 0.0;
};

/// Per-rung outcome of a run (index = ladder position, cold to hot).
struct ReplicaStats {
  std::uint64_t moves = 0;            ///< iterations the rung executed
  std::uint64_t accepted = 0;         ///< accepted moves
  std::uint64_t swaps_attempted = 0;  ///< exchange attempts involving this rung
  std::uint64_t swaps_accepted = 0;   ///< exchanges that moved a state
  std::uint64_t restarts = 0;         ///< global-best broadcasts adopted
  double temperature_scale = 1.0;     ///< the rung's ladder multiplier
  double best_haspl = 0.0;            ///< best h-ASPL this rung ever held
};

struct AnnealResult {
  HostSwitchGraph best;
  HostMetrics best_metrics;
  std::uint64_t evaluations = 0;        ///< metric evaluations, all rungs
  std::uint64_t accepted = 0;           ///< accepted moves, all rungs
  std::vector<AnnealTracePoint> trace;  ///< winning rung's samples
  /// True when the run stopped early on shutdown_requested() (SIGINT/
  /// SIGTERM); `best` is still the best solution seen up to that point.
  bool interrupted = false;
  std::vector<ReplicaStats> replicas;
  /// Global best h-ASPL after each exchange barrier — monotonically
  /// non-increasing (asserted by the property tests).
  std::vector<double> round_best_haspl;
  /// Ladder position that produced the global best.
  std::uint32_t best_replica = 0;
};

/// Runs SA from `initial` (which must be fully attached and connected) and
/// returns the best solution seen. Polls shutdown_requested() each
/// iteration of every chain and winds down gracefully when set.
AnnealResult anneal(const HostSwitchGraph& initial, const AnnealOptions& options);

// ---- replica-exchange primitives (exposed for the property tests) ------

/// The geometric temperature-scale ladder: K ascending multipliers
/// starting at exactly 1.0 (rung k = ratio^k). `ratio` 0 auto-picks
/// 4^(1/(K-1)) (hottest rung 4x); K = 1 always yields {1.0}.
std::vector<double> temperature_ladder(std::uint32_t replicas, double ratio);

/// The fixed swap schedule of one barrier: adjacent pairs (i, i+1) with
/// i matching the round's parity. Pairs are disjoint (each rung appears
/// in at most one pair per round) and consecutive rounds cover every
/// adjacent pair.
std::vector<std::pair<std::uint32_t, std::uint32_t>> swap_pairs_for_round(
    std::uint64_t round, std::uint32_t replicas);

/// Metropolis replica-exchange exponent for one adjacent pair:
/// (E_cold - E_hot) * (1/T_cold - 1/T_hot). Non-negative means the swap is
/// always accepted — in particular the forced-accept case where the colder
/// rung holds the higher energy; negative is accepted with probability
/// exp(exponent).
double exchange_exponent(double energy_cold, double energy_hot,
                         double temp_cold, double temp_hot) noexcept;

/// Applies the Metropolis exchange test, drawing from `rng` only when the
/// exponent is negative (so forced accepts never consume randomness).
bool accept_exchange(double exponent, Xoshiro256& rng);

/// The PRNG seed of ladder rung `k`: rung 0 keeps `seed` verbatim, hotter
/// rungs get splitmix-derived sub-streams.
std::uint64_t replica_seed(std::uint64_t seed, std::uint32_t k) noexcept;

}  // namespace orp
