// LD_PRELOAD shim behind `scripts/profile.sh --copies`: counts the bytes
// and calls of every memcpy/memmove of at least kMinBytes bytes, per call
// site, and writes them out when the process exits.
//
// A call site is the first two return addresses on the stack that lie in
// the main executable: the copy's own return address when the executable
// called it, else the frame that called into the shared library
// (libstdc++'s out-of-line string code), plus that frame's caller. The
// caller names the site when the first frame is itself library code
// instantiated in the executable (a std::string or std::vector member
// compiled out of line), so every byte lands on a line of the program's
// own source. At exit, the file named by $H2PUSH_COPIES_OUT gets the
// executable's load base, then one line per site:
//   base <hex>
//   <first address, hex> <second address, hex> <bytes> <calls>
// (address 0: no such frame).
//
// Built by profile.sh:
//   g++ -O2 -shared -fPIC -fno-builtin -fno-tree-loop-distribute-patterns \
//       copy_shim.cc -o copy_shim.so -ldl
// The two -f flags keep the compiler from turning the shim's own byte loop
// back into a memcpy call.
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMinBytes = 256;
constexpr std::size_t kSlots = std::size_t{1} << 16;  // power of two
constexpr int kMaxRanges = 16;

using CopyFn = void* (*)(void*, const void*, std::size_t);

struct Site {
  std::uintptr_t first = 0;
  std::uintptr_t second = 0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};

CopyFn real_memcpy = nullptr;
CopyFn real_memmove = nullptr;
Site sites[kSlots];
std::atomic_flag table_lock = ATOMIC_FLAG_INIT;
bool ready = false;  // set once the executable's ranges are known

// The executable's mapped ranges and its load base.
std::uintptr_t exe_lo[kMaxRanges];
std::uintptr_t exe_hi[kMaxRanges];
int exe_ranges = 0;
std::uintptr_t exe_base = 0;

// Set while the shim does its own work (walking the stack, reading
// /proc), so copies made on the way are not counted.
__attribute__((tls_model("initial-exec"))) thread_local bool busy = false;

void* byte_move(void* dst, const void* src, std::size_t n) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  if (d < s) {
    for (std::size_t i = 0; i < n; ++i) d[i] = s[i];
  } else {
    for (std::size_t i = n; i > 0; --i) d[i - 1] = s[i - 1];
  }
  return dst;
}

bool in_exe(std::uintptr_t address) {
  for (int i = 0; i < exe_ranges; ++i) {
    if (address >= exe_lo[i] && address < exe_hi[i]) return true;
  }
  return false;
}

std::uintptr_t parse_hex(const char*& p) {
  std::uintptr_t v = 0;
  for (;; ++p) {
    const char c = *p;
    if (c >= '0' && c <= '9') {
      v = v * 16 + static_cast<std::uintptr_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = v * 16 + static_cast<std::uintptr_t>(c - 'a' + 10);
    } else {
      return v;
    }
  }
}

bool same_path(const char* a, const char* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Find the executable's mappings in /proc/self/maps.
void load_exe_ranges() {
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) return;
  static char maps[1 << 20];
  const int fd = open("/proc/self/maps", O_RDONLY);
  if (fd < 0) return;
  std::size_t size = 0;
  for (ssize_t n; (n = read(fd, maps + size, sizeof(maps) - 1 - size)) > 0;) {
    size += static_cast<std::size_t>(n);
  }
  close(fd);
  maps[size] = '\0';
  // Lines: lo-hi perms offset dev inode path
  for (const char* line = maps; *line != '\0';) {
    const char* end = line;
    while (*end != '\0' && *end != '\n') ++end;
    const char* p = line;
    const std::uintptr_t lo = parse_hex(p);
    ++p;  // '-'
    const std::uintptr_t hi = parse_hex(p);
    ++p;  // ' '
    const bool exec = p[2] == 'x';
    p += 5;
    const std::uintptr_t offset = parse_hex(p);
    const char* path = end;
    while (path > p && path[-1] != ' ') --path;
    const auto path_len = static_cast<std::size_t>(end - path);
    if (path_len == static_cast<std::size_t>(exe_len) &&
        same_path(path, exe, path_len)) {
      if (offset == 0 && exe_base == 0) exe_base = lo;
      if (exec && exe_ranges < kMaxRanges) {
        exe_lo[exe_ranges] = lo;
        exe_hi[exe_ranges] = hi;
        ++exe_ranges;
      }
    }
    line = *end == '\0' ? end : end + 1;
  }
}

void record(std::size_t n) {
  if (n < kMinBytes || busy || !ready) return;
  busy = true;
  // The first two frames inside the executable (the shim's own frames and
  // any library frames come first).
  void* frames[48];
  const int depth = backtrace(frames, 48);
  std::uintptr_t found[2] = {0, 0};
  for (int i = 0, k = 0; i < depth && k < 2; ++i) {
    const auto address = reinterpret_cast<std::uintptr_t>(frames[i]);
    if (in_exe(address)) found[k++] = address;
  }
  std::size_t slot =
      ((found[0] ^ (found[1] << 1)) * 0x9e3779b97f4a7c15ULL >> 40) &
      (kSlots - 1);
  while (table_lock.test_and_set(std::memory_order_acquire)) {
  }
  while ((sites[slot].first != found[0] || sites[slot].second != found[1]) &&
         sites[slot].calls != 0) {
    slot = (slot + 1) & (kSlots - 1);
  }
  sites[slot].first = found[0];
  sites[slot].second = found[1];
  sites[slot].bytes += n;
  ++sites[slot].calls;
  table_lock.clear(std::memory_order_release);
  busy = false;
}

__attribute__((constructor)) void start() {
  busy = true;
  real_memcpy = reinterpret_cast<CopyFn>(dlsym(RTLD_NEXT, "memcpy"));
  real_memmove = reinterpret_cast<CopyFn>(dlsym(RTLD_NEXT, "memmove"));
  load_exe_ranges();
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder now, not inside a copy
  ready = exe_ranges > 0;
  busy = false;
}

__attribute__((destructor)) void finish() {
  busy = true;
  const char* path = std::getenv("H2PUSH_COPIES_OUT");
  if (path == nullptr) return;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  std::fprintf(out, "base %lx\n", static_cast<unsigned long>(exe_base));
  for (const Site& site : sites) {
    if (site.calls == 0) continue;
    std::fprintf(out, "%lx %lx %llu %llu\n",
                 static_cast<unsigned long>(site.first),
                 static_cast<unsigned long>(site.second),
                 static_cast<unsigned long long>(site.bytes),
                 static_cast<unsigned long long>(site.calls));
  }
  std::fclose(out);
}

}  // namespace

extern "C" void* memcpy(void* dst, const void* src, std::size_t n) noexcept {
  record(n);
  return real_memcpy != nullptr ? real_memcpy(dst, src, n)
                                : byte_move(dst, src, n);
}

extern "C" void* memmove(void* dst, const void* src, std::size_t n) noexcept {
  record(n);
  return real_memmove != nullptr ? real_memmove(dst, src, n)
                                 : byte_move(dst, src, n);
}
