#pragma once
// Per-run hardware performance counters for the microbenchmark harness.
//
// On Linux a HwCounterGroup opens one perf_event_open group — cycles
// (leader), instructions, cache-misses, branch-misses — counting this
// process in user space only. Reads use PERF_FORMAT_GROUP with
// TIME_ENABLED / TIME_RUNNING so multiplexed counts are scaled back to
// estimates. Containers and CI runners routinely deny perf_event_open
// (seccomp, perf_event_paranoid); every failure path degrades to
// available() == false and the harness falls back to getrusage CPU time,
// so a benchmark run never errors out over missing counters.

#include <cstdint>

namespace orp::obs::bench {

/// One measurement interval's counter totals. `valid` is false when the
/// kernel denied the event group (values are then all zero).
struct HwCounterValues {
  bool valid = false;
  double cycles = 0.0;
  double instructions = 0.0;
  double cache_misses = 0.0;
  double branch_misses = 0.0;
  /// time_enabled / time_running of the read (1.0 = never multiplexed).
  double multiplex_scale = 1.0;
};

class HwCounterGroup {
 public:
  HwCounterGroup();
  ~HwCounterGroup();
  HwCounterGroup(const HwCounterGroup&) = delete;
  HwCounterGroup& operator=(const HwCounterGroup&) = delete;

  /// True when at least the cycles leader opened.
  bool available() const noexcept { return leader_fd_ >= 0; }

  /// Resets and enables the group (no-op when unavailable).
  void start() noexcept;
  /// Disables the group and returns the interval's scaled counts.
  HwCounterValues stop() noexcept;

 private:
  // File descriptors; -1 when the event could not be opened. The leader
  // is cycles; siblings that fail to open are skipped individually.
  int leader_fd_ = -1;
  int instructions_fd_ = -1;
  int cache_misses_fd_ = -1;
  int branch_misses_fd_ = -1;
  // perf event ids (from PERF_FORMAT_ID) → slot mapping for group reads.
  std::uint64_t leader_id_ = 0;
  std::uint64_t instructions_id_ = 0;
  std::uint64_t cache_misses_id_ = 0;
  std::uint64_t branch_misses_id_ = 0;
};

/// CPU time consumed by this process so far (getrusage), nanoseconds.
struct CpuTimes {
  std::uint64_t user_ns = 0;
  std::uint64_t system_ns = 0;
};
CpuTimes process_cpu_times() noexcept;

/// Resident-set high-watermark of this process image in kilobytes
/// (VmHWM from /proc/self/status; 0 where that is unavailable).
std::int64_t peak_rss_kb() noexcept;

}  // namespace orp::obs::bench
