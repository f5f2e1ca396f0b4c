#include "obs/bench/hw_counters.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <utility>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace orp::obs::bench {

#if defined(__linux__)

namespace {

long perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                     unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// Opens one hardware event in `group_fd`'s group (or as leader when
/// group_fd == -1). Returns {fd, id}; fd -1 on any failure.
std::pair<int, std::uint64_t> open_event(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = config;
  attr.disabled = (group_fd == -1) ? 1 : 0;  // group enables via the leader
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                     PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = perf_event_open(&attr, 0 /* this process */, -1 /* any cpu */,
                                  group_fd, 0);
  if (fd < 0) return {-1, 0};
  std::uint64_t id = 0;
  if (ioctl(static_cast<int>(fd), PERF_EVENT_IOC_ID, &id) != 0) {
    close(static_cast<int>(fd));
    return {-1, 0};
  }
  return {static_cast<int>(fd), id};
}

}  // namespace

HwCounterGroup::HwCounterGroup() {
  std::tie(leader_fd_, leader_id_) = open_event(PERF_COUNT_HW_CPU_CYCLES, -1);
  if (leader_fd_ < 0) return;  // no perf here; stay in fallback mode
  std::tie(instructions_fd_, instructions_id_) =
      open_event(PERF_COUNT_HW_INSTRUCTIONS, leader_fd_);
  std::tie(cache_misses_fd_, cache_misses_id_) =
      open_event(PERF_COUNT_HW_CACHE_MISSES, leader_fd_);
  std::tie(branch_misses_fd_, branch_misses_id_) =
      open_event(PERF_COUNT_HW_BRANCH_MISSES, leader_fd_);
}

HwCounterGroup::~HwCounterGroup() {
  for (const int fd : {instructions_fd_, cache_misses_fd_, branch_misses_fd_, leader_fd_}) {
    if (fd >= 0) close(fd);
  }
}

void HwCounterGroup::start() noexcept {
  if (leader_fd_ < 0) return;
  ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

HwCounterValues HwCounterGroup::stop() noexcept {
  HwCounterValues out;
  if (leader_fd_ < 0) return out;
  ioctl(leader_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);

  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
  // then {value, id} per event.
  struct {
    std::uint64_t nr;
    std::uint64_t time_enabled;
    std::uint64_t time_running;
    struct {
      std::uint64_t value;
      std::uint64_t id;
    } values[8];
  } buffer;
  const ssize_t got = read(leader_fd_, &buffer, sizeof buffer);
  if (got < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return out;

  double scale = 1.0;
  if (buffer.time_running > 0 && buffer.time_enabled > buffer.time_running) {
    scale = static_cast<double>(buffer.time_enabled) /
            static_cast<double>(buffer.time_running);
  }
  out.valid = true;
  out.multiplex_scale = scale;
  const std::uint64_t nr = buffer.nr > 8 ? 8 : buffer.nr;
  for (std::uint64_t i = 0; i < nr; ++i) {
    const double value = static_cast<double>(buffer.values[i].value) * scale;
    const std::uint64_t id = buffer.values[i].id;
    if (id == leader_id_) out.cycles = value;
    else if (instructions_fd_ >= 0 && id == instructions_id_) out.instructions = value;
    else if (cache_misses_fd_ >= 0 && id == cache_misses_id_) out.cache_misses = value;
    else if (branch_misses_fd_ >= 0 && id == branch_misses_id_) out.branch_misses = value;
  }
  return out;
}

CpuTimes process_cpu_times() noexcept {
  rusage usage;
  CpuTimes out;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return out;
  const auto to_ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  out.user_ns = to_ns(usage.ru_utime);
  out.system_ns = to_ns(usage.ru_stime);
  return out;
}

std::int64_t peak_rss_kb() noexcept {
  // VmHWM belongs to this process image. getrusage's ru_maxrss survives
  // execve, so a binary started by a bigger parent would report the
  // parent's peak instead of its own.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (!status) return 0;
  std::int64_t kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, status)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);  // "VmHWM:   1234 kB"
      break;
    }
  }
  std::fclose(status);
  return kb;
}

#else  // !__linux__ — no perf events, no rusage guarantees.

HwCounterGroup::HwCounterGroup() = default;
HwCounterGroup::~HwCounterGroup() = default;
void HwCounterGroup::start() noexcept {}
HwCounterValues HwCounterGroup::stop() noexcept { return {}; }
CpuTimes process_cpu_times() noexcept { return {}; }
std::int64_t peak_rss_kb() noexcept { return 0; }

#endif

}  // namespace orp::obs::bench
