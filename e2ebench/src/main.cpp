// e2e_bench: runs one workload of the end-to-end benchmark for a given
// time and prints one JSON line of results (see README.md).
//
//   e2e_bench --workload design|nas|analyze --seed N --seconds S
//             [--trace-dir DIR]
//
// Without --trace-dir every round runs untraced and the line carries the
// end-to-end metrics. With it, rounds come in pairs on the same inputs: an
// untraced round, then a traced one that writes a JSONL trace to
// DIR/<workload>.jsonl and gives the pipeline stage times. The untraced
// rounds give every other per-layer metric, and each pair one ratio of
// obs.trace_overhead.

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "obs/sink.hpp"
#include "workloads.hpp"

namespace {

using e2e::quantile;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (args.workload.empty() || argc % 2 == 0) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload NAME --seed N --seconds S [--trace-dir DIR]");
  }
  return args;
}

// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
// would also count the memory of the parent that forked it before exec.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::string json_object(const std::map<std::string, double>& values) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  const char* sep = "";
  for (const auto& [name, value] : values) {
    if (!std::isfinite(value)) throw std::runtime_error(name + " is not finite");
    os << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse(argc, argv);
  // Untraced unless this run asks for a trace, whatever ORP_OBS_OUT says.
  orp::obs::configure(orp::obs::SinkConfig{});
  const auto workload = e2e::make_workload(args.workload, args.seed);
  const bool tracing = !args.trace_dir.empty();
  const std::string trace_path = args.trace_dir + "/" + args.workload + ".jsonl";

  e2e::Checker checker;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> walls, setups, overheads;
  std::map<std::string, std::vector<double>> layers;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  // Whole rounds until the time is up: at least the ones that give haspl_*,
  // and in a traced run whole pairs.
  const std::uint64_t min_rounds = tracing ? 2 : e2e::kQualityRounds;
  for (std::uint64_t round = 0;
       elapsed() < args.seconds || round < min_rounds || (tracing && round % 2 == 1);
       ++round) {
    const bool traced = tracing && round % 2 == 1;
    if (traced && !orp::obs::configure({orp::obs::SinkKind::kJsonl, trace_path, 250})) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    e2e::Timings timings;
    const e2e::RoundResult r =
        workload->round(tracing ? round / 2 : round, timings, checker);
    attempted += r.attempted;
    failed += r.failed;
    const double wall = r.setup_s + r.ops_s;
    if (!traced) {
      walls.push_back(wall);
      setups.push_back(r.setup_s);
      for (const auto& [name, value] : e2e::round_layer_metrics(timings, r.counters)) {
        layers[name].push_back(value);
      }
      continue;
    }
    orp::obs::configure(orp::obs::SinkConfig{});  // flushes the trace
    overheads.push_back(wall / walls.back());
    const auto analysis = orp::obs::report::analyze_trace_file(trace_path);
    for (const auto& [name, value] : e2e::pipeline_metrics(analysis)) {
      layers[name].push_back(value);
    }
  }

  std::map<std::string, double> metrics;
  if (tracing) {
    layers["obs.trace_overhead"] = overheads;
    for (const auto& [name, values] : layers) metrics[name] = median(values);
  } else {
    // The peak is read before quality(), which on nas and analyze builds
    // start graphs the rounds never use.
    const double peak_mib = peak_rss_kib() / 1024.0;
    metrics = workload->quality(checker);
    metrics["wall_s"] = median(walls);
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = peak_mib;
  }
  for (const auto& failure : checker.failures()) std::cerr << "CHECK FAILED " << failure << "\n";
  std::cerr << workload->summary();
  std::cerr << "rounds " << walls.size() + overheads.size() << ", checks " << checker.checks()
            << ", wall per round";
  for (const double w : walls) std::cerr << " " << w;
  std::cerr << "\n";
  std::cout << "{\"correct\": " << (checker.ok() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_object(metrics) << "}" << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "e2e_bench: " << e.what() << "\n";
  return 2;
}
