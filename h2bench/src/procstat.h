// Per-thread CPU and context-switch accounting from /proc/self/task.
//
// The live workloads run the server core in-process, so the server's cost
// is the CPU of its threads: the task ids that appear under
// /proc/self/task once Server::start() has spawned them. stat gives user
// and system time (clock ticks), status the context-switch counts.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace h2bench {

struct TaskStat {
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
};

struct TaskStatus {
  std::uint64_t voluntary_ctxsw = 0;
  std::uint64_t nonvoluntary_ctxsw = 0;
};

/// Fields 14 (utime) and 15 (stime) of a /proc/<pid>/task/<tid>/stat
/// line. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last ')'.
std::optional<TaskStat> parse_task_stat(std::string_view line);

/// voluntary_ctxt_switches / nonvoluntary_ctxt_switches of a status file.
std::optional<TaskStatus> parse_task_status(std::string_view text);

/// Thread ids of this process, ascending.
std::vector<int> list_task_ids();

/// First field of /proc/<pid>/task/<tid>/schedstat: nanoseconds on CPU.
std::optional<std::uint64_t> parse_task_schedstat(std::string_view line);

/// Summed usage of a set of threads at one instant.
struct ThreadUsage {
  double user_s = 0;  ///< clock-tick resolution (stat)
  double sys_s = 0;
  double run_s = 0;  ///< nanosecond resolution (schedstat)
  std::uint64_t voluntary_ctxsw = 0;
  std::uint64_t nonvoluntary_ctxsw = 0;

  double cpu_s() const noexcept { return run_s; }
  ThreadUsage operator-(const ThreadUsage& earlier) const noexcept;
  ThreadUsage& operator+=(const ThreadUsage& more) noexcept;
};

/// Usage of `tids` now; a thread that has exited contributes nothing.
ThreadUsage sample_threads(const std::vector<int>& tids);

/// Thread id of the caller.
int current_tid();

/// CPU seconds the calling thread has used (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_s();

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Restrict thread `tid` to `cpus`; false if the kernel refuses.
bool set_thread_cpus(int tid, const std::vector<int>& cpus);

}  // namespace h2bench
