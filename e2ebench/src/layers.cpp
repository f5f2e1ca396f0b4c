#include "layers.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {
namespace {

const char* const kKernels[] = {"EP", "IS", "FT", "MG", "CG", "LU", "SP", "BT"};
const char* const kCollectives[] = {"alltoall", "allreduce", "allgather", "bcast"};
const char* const kStages[] = {"build", "solve", "simulate", "partition", "cost", "fault"};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double Timings::sum(const std::string& name) const {
  double total = 0.0;
  for (const double s : samples(name)) total += s;
  return total;
}

std::size_t Timings::count(const std::string& name) const { return samples(name).size(); }

const std::vector<double>& Timings::samples(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kNone : it->second;
}

double CounterDelta::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double CounterDelta::hist_count(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.first;
}

double CounterDelta::hist_sum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.second;
}

CounterDelta diff(const orp::obs::MetricsSnapshot& before,
                  const orp::obs::MetricsSnapshot& after) {
  CounterDelta delta;
  for (const auto& c : after.counters) delta.counters[c.name] = static_cast<double>(c.value);
  for (const auto& c : before.counters) delta.counters[c.name] -= static_cast<double>(c.value);
  for (const auto& h : after.histograms) {
    delta.histograms[h.name] = {static_cast<double>(h.count), static_cast<double>(h.sum)};
  }
  for (const auto& h : before.histograms) {
    auto& [count, sum] = delta.histograms[h.name];
    count -= static_cast<double>(h.count);
    sum -= static_cast<double>(h.sum);
  }
  return delta;
}

std::map<std::string, double> round_layer_metrics(const Timings& t, const CounterDelta& d) {
  std::map<std::string, double> out;
  // search: the annealer counts every move as accepted in one of three
  // ways, or restored.
  const double solve_s = t.sum("search.solve.fig08") + t.sum("search.solve.mopt") +
                         t.sum("search.solve.regular");
  out["search.solve_s.fig08"] = t.sum("search.solve.fig08");
  out["search.solve_s.mopt"] = t.sum("search.solve.mopt");
  out["search.solve_s.regular"] = t.sum("search.solve.regular");
  const double accepted = d.counter("annealer.swap.accepted") +
                          d.counter("annealer.swing.accepted") +
                          d.counter("annealer.completion.accepted");
  const double moves = accepted + d.counter("annealer.restored");
  out["search.moves_per_s"] = ratio(moves, solve_s);
  out["search.accept_ratio"] = ratio(accepted, moves);
  // hsg: annealer evaluations are delta applies (plus one full evaluation
  // per solve); the ASPL kernels time every full evaluation.
  const double applies = d.counter("delta_eval.applies");
  out["hsg.delta.apply_us"] =
      ratio(d.hist_sum("annealer.eval_ns"), d.hist_count("annealer.eval_ns")) / 1e3;
  out["hsg.delta.dirty_sources_per_apply"] = ratio(d.counter("delta_eval.dirty_sources"), applies);
  out["hsg.delta.reverts_per_apply"] = ratio(d.counter("delta_eval.reverts"), applies);
  out["hsg.aspl.full_eval_ms"] =
      ratio(d.hist_sum("aspl.kernel.bitparallel.ns") + d.hist_sum("aspl.kernel.scalar.ns"),
            d.hist_count("aspl.kernel.bitparallel.ns") +
                d.hist_count("aspl.kernel.scalar.ns")) / 1e6;
  out["topo.build_ms"] = t.sum("topo.build") * 1e3;
  out["sim.machine_build_ms"] = t.sum("sim.machine_build") * 1e3;
  // sim
  for (const char* k : kKernels) {
    out[std::string("sim.nas.") + k + "_s"] = t.sum(std::string("sim.nas.") + k);
  }
  out["sim.phases"] = d.counter("sim.phases");
  out["sim.flows"] = d.counter("sim.flows");
  out["sim.phase_solve_us"] =
      ratio(d.hist_sum("sim.phase.solve_ns"), d.hist_count("sim.phase.solve_ns")) / 1e3;
  for (const char* c : kCollectives) {
    out[std::string("sim.fault.") + c + "_ms"] = t.sum(std::string("sim.fault.") + c) * 1e3;
  }
  out["sim.fault.rebuilds"] = d.counter("sim.fault.rebuilds");
  out["sim.fault.flows_retried"] = d.counter("sim.fault.retried_flows");
  // partition, cost, fault
  out["partition.cut_s"] = t.sum("partition.cut");
  out["cost.evaluate_ms"] = t.sum("cost.evaluate") * 1e3;
  out["fault.trial_us.p50"] = quantile(t.samples("fault.trial"), 0.50) * 1e6;
  out["fault.trial_us.p99"] = quantile(t.samples("fault.trial"), 0.99) * 1e6;
  out["fault.degraded_eval_us"] =
      ratio(t.sum("fault.degraded_eval"), static_cast<double>(t.count("fault.degraded_eval"))) * 1e6;
  return out;
}

std::map<std::string, double> pipeline_metrics(
    const orp::obs::report::TraceAnalysis& analysis) {
  std::map<std::string, double> out;
  for (const char* s : kStages) out[std::string("pipeline.") + s + "_s"] = 0.0;
  for (const auto& span : analysis.spans) {
    if (span.category != "pipeline") continue;
    const auto it = out.find(span.name + "_s");
    if (it != out.end()) it->second += span.total_us / 1e6;
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

}  // namespace e2e
