#include "procstat.h"

#include <dirent.h>
#include <time.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

namespace h2bench {
namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, out);
  return result.ec == std::errc() && result.ptr == end;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

std::optional<TaskStat> parse_task_stat(std::string_view line) {
  const auto close = line.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  // After ")": field 3 (state) onwards, space separated.
  std::string_view rest = line.substr(close + 1);
  int field = 2;
  TaskStat stat;
  bool have_utime = false;
  while (!rest.empty()) {
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.empty()) break;
    const auto space = rest.find(' ');
    std::string_view token = rest.substr(0, space);
    while (!token.empty() && (token.back() == '\n' || token.back() == '\r')) {
      token.remove_suffix(1);
    }
    ++field;
    if (field == 14) {
      if (!parse_u64(token, stat.utime_ticks)) return std::nullopt;
      have_utime = true;
    } else if (field == 15) {
      if (!have_utime || !parse_u64(token, stat.stime_ticks)) {
        return std::nullopt;
      }
      return stat;
    }
    if (space == std::string_view::npos) break;
    rest.remove_prefix(space);
  }
  return std::nullopt;
}

std::optional<TaskStatus> parse_task_status(std::string_view text) {
  TaskStatus status;
  bool have_voluntary = false;
  bool have_nonvoluntary = false;
  while (!text.empty()) {
    const auto newline = text.find('\n');
    const std::string_view line = text.substr(0, newline);
    const auto colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view key = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      const auto first = value.find_first_not_of(" \t");
      value.remove_prefix(first == std::string_view::npos ? value.size()
                                                          : first);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
        value.remove_suffix(1);
      }
      if (key == "voluntary_ctxt_switches") {
        have_voluntary = parse_u64(value, status.voluntary_ctxsw);
      } else if (key == "nonvoluntary_ctxt_switches") {
        have_nonvoluntary = parse_u64(value, status.nonvoluntary_ctxsw);
      }
    }
    if (newline == std::string_view::npos) break;
    text.remove_prefix(newline + 1);
  }
  if (!have_voluntary || !have_nonvoluntary) return std::nullopt;
  return status;
}

std::optional<std::uint64_t> parse_task_schedstat(std::string_view line) {
  const auto space = line.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  std::uint64_t ns = 0;
  if (!parse_u64(line.substr(0, space), ns)) return std::nullopt;
  return ns;
}

std::vector<int> list_task_ids() {
  std::vector<int> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    std::uint64_t tid = 0;
    if (parse_u64(entry->d_name, tid)) tids.push_back(static_cast<int>(tid));
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

ThreadUsage ThreadUsage::operator-(const ThreadUsage& earlier) const noexcept {
  ThreadUsage d;
  d.user_s = user_s - earlier.user_s;
  d.sys_s = sys_s - earlier.sys_s;
  d.run_s = run_s - earlier.run_s;
  d.voluntary_ctxsw = voluntary_ctxsw - earlier.voluntary_ctxsw;
  d.nonvoluntary_ctxsw = nonvoluntary_ctxsw - earlier.nonvoluntary_ctxsw;
  return d;
}

ThreadUsage& ThreadUsage::operator+=(const ThreadUsage& more) noexcept {
  user_s += more.user_s;
  sys_s += more.sys_s;
  run_s += more.run_s;
  voluntary_ctxsw += more.voluntary_ctxsw;
  nonvoluntary_ctxsw += more.nonvoluntary_ctxsw;
  return *this;
}

ThreadUsage sample_threads(const std::vector<int>& tids) {
  static const double ticks_per_s =
      static_cast<double>(::sysconf(_SC_CLK_TCK));
  ThreadUsage usage;
  for (const int tid : tids) {
    const std::string base = "/proc/self/task/" + std::to_string(tid);
    const auto stat = parse_task_stat(read_file(base + "/stat"));
    const auto status = parse_task_status(read_file(base + "/status"));
    const auto run_ns = parse_task_schedstat(read_file(base + "/schedstat"));
    if (!stat || !status || !run_ns) continue;
    usage.run_s += static_cast<double>(*run_ns) / 1e9;
    usage.user_s += static_cast<double>(stat->utime_ticks) / ticks_per_s;
    usage.sys_s += static_cast<double>(stat->stime_ticks) / ticks_per_s;
    usage.voluntary_ctxsw += status->voluntary_ctxsw;
    usage.nonvoluntary_ctxsw += status->nonvoluntary_ctxsw;
  }
  return usage;
}

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

double thread_cpu_s() {
  timespec ts = {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool set_thread_cpus(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace h2bench
