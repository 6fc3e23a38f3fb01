#!/usr/bin/env bash
# Where a serial sweep spends its CPU, by layer: builds the fig2b harness
# with gprof instrumentation (-pg, Release) in its own build directory, runs
# it at --jobs 1 with the run cache off, and prints gprof's self time summed
# per h2push namespace (sim, browser, h2, ...), with std/libstdc++ template
# code and everything else in their own rows.
#
#   scripts/profile.sh              # full fig2b sweep (6 200 loads)
#   scripts/profile.sh --quick      # reduced sweep, a few seconds
#   scripts/profile.sh --top 30     # also list the 30 hottest functions
#   scripts/profile.sh --static     # link statically: libc is sampled too
#   scripts/profile.sh --h2bench sweep-fig2b [--seed 5 --seconds 10]
#                                   # the benchmark's own timed sweep
#   scripts/profile.sh --copies sweep-fig2b [--seed 5 --seconds 10]
#                                   # bytes memcpy/memmove'd, per source line
#
# Other flags are forwarded to bench_fig2b_push_vs_nopush, or with
# --h2bench WORKLOAD to the h2bench binary (default --seed 1 --seconds 10
# --trace 0). The two load their sites differently: bench_fig2b replays
# each site about 60 times, so its parsed-stylesheet cache nearly always
# hits, while h2bench loads each site twice and parses on about half its
# loads. --h2bench builds the h2bench package (h2bench/, its sources
# untouched) with -pg in build-prof-h2bench/. Only code linked
# into the executable is sampled. A default (dynamic) build therefore leaves
# time inside shared libraries — libc's memmove/malloc/memcmp, libstdc++'s
# out-of-line parts — out of the total. --static links with -pg -static (in
# build-prof-static/), so those functions land in the executable: C symbols
# (libc's string and allocator routines) get a "libc" row, and libstdc++'s
# out-of-line code joins the std/other rows.
#
# --copies WORKLOAD runs the same h2bench sweep instead under an LD_PRELOAD
# shim (scripts/copy_shim.cc) that counts every memcpy/memmove of 256 bytes
# or more by calling site, and prints GB and calls per site, resolved with
# addr2line -i to the innermost line of the program's own source (src/ or
# h2bench/src/) that the copy was inlined into. A copy made inside a
# shared library is charged to the executable frame that called it, and
# one made in library code compiled out of line into the executable (a
# std::string member, say) to that code's caller. The h2bench package is
# built Release with -g in build-prof-copies/ (h2bench/ untouched). The
# sweep runs a fixed set of loads, so totals compare across builds; the
# shim walks the stack on every counted copy, so its timings do not.
set -euo pipefail
cd "$(dirname "$0")/.."

link_flags=-pg
static=0
top=0
workload=
copies=
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --top)
      top="$2"
      shift 2
      ;;
    --static)
      link_flags="-pg -static"
      static=1
      shift
      ;;
    --h2bench)
      workload="$2"
      shift 2
      ;;
    --copies)
      copies="$2"
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 4)

if [[ -n "$copies" ]]; then
  build_dir=build-prof-copies
  echo "=== build: Release -g + copy counter (${build_dir}/) ===" >&2
  cmake -B "$build_dir" -S h2bench -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-g >/dev/null
  cmake --build "$build_dir" -j "$jobs" --target h2bench >/dev/null
  g++ -std=c++20 -O2 -shared -fPIC -fno-builtin \
    -fno-tree-loop-distribute-patterns scripts/copy_shim.cc \
    -o "$build_dir/copy_shim.so" -ldl
  bench_bin=$(pwd)/$build_dir/h2bench
  shim=$(pwd)/$build_dir/copy_shim.so
  run_dir=$(mktemp -d)
  trap 'rm -rf "$run_dir"' EXIT
  echo "=== run: h2bench --workload $copies ${args[*]:-} (copies counted) ===" >&2
  (cd "$run_dir" && H2PUSH_COPIES_OUT="$run_dir/copies.txt" \
    LD_PRELOAD="$shim" "$bench_bin" --workload "$copies" --seed 1 \
    --seconds 10 --trace 0 "${args[@]}" > "$run_dir/result.txt")
  python3 - "$bench_bin" "$run_dir/copies.txt" "$run_dir/result.txt" \
    "$(pwd)" "$top" <<'EOF'
import json
import subprocess
import sys

exe, counts, result, root, top = sys.argv[1:6]
top = int(top) if int(top) > 0 else 15
loads = json.loads(open(result).read().strip().splitlines()[-1])["attempted"]
base = 0
sites = []
for line in open(counts):
    fields = line.split()
    if fields[0] == "base":
        base = int(fields[1], 16)
    else:
        sites.append((int(fields[0], 16), int(fields[1], 16),
                      int(fields[2]), int(fields[3])))
with open(exe, "rb") as f:
    pie = int.from_bytes(f.read(18)[16:18], "little") == 3  # ET_DYN
addresses = sorted({a for s in sites for a in s[:2] if a != 0})
# A return address follows its call: look up the byte before it.
lines = []
if addresses:
    lines = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe] +
        ["%x" % ((a - base if pie else a) - 1) for a in addresses],
        capture_output=True, text=True, check=True).stdout.splitlines()
# Per address: "0x..." then (function, file:line) pairs, innermost first.
chains = []
for line in lines:
    if line.startswith("0x"):
        chains.append([])
    else:
        chains[-1].append(line)
own_source = (root + "/src/", root + "/h2bench/src/")


def own_frame(chain):
    """The innermost (function, file:line) in the program's own source."""
    pairs = list(zip(chain[0::2], chain[1::2]))
    for function, where in pairs:
        if where.startswith(own_source):
            return function, where
    return None


def label(pair):
    function, where = pair
    where = where.split(" ")[0].replace(root + "/", "")
    function = function.replace("(anonymous namespace)::", "")
    return "%s  %s" % (where, function.split("(")[0][:60])


frames = dict(zip(addresses, chains))
by_label = {}
for first, second, size, calls in sites:
    pick = None
    for address in (first, second):
        if address != 0 and pick is None:
            pick = own_frame(frames[address])
    if pick is not None:
        name = label(pick)
    elif first != 0 and frames[first]:
        name = label((frames[first][0], frames[first][1]))
    else:
        name = "(no executable frame)"
    total = by_label.setdefault(name, [0, 0])
    total[0] += size
    total[1] += calls
all_bytes = sum(v[0] for v in by_label.values())
print("loads %d; memcpy/memmove of >= 256 bytes: %.2f GB in %d calls "
      "(%.2f MB/load)" % (loads, all_bytes / 1e9,
                          sum(v[1] for v in by_label.values()),
                          all_bytes / 1e6 / max(loads, 1)))
print("%8s %10s %8s  %s" % ("GB", "calls", "MB/load", "site"))
for name, (size, calls) in sorted(by_label.items(),
                                  key=lambda kv: -kv[1][0])[:top]:
    print("%8.3f %10d %8.3f  %s" % (size / 1e9, calls,
                                    size / 1e6 / max(loads, 1), name))
EOF
  exit 0
fi

if [[ -n "$workload" ]]; then
  source_dir=h2bench
  build_dir=build-prof-h2bench
  target=h2bench
  binary=h2bench
else
  source_dir=.
  build_dir=build-prof
  target=bench_fig2b_push_vs_nopush
  binary=bench/bench_fig2b_push_vs_nopush
fi
if [[ "$static" == 1 ]]; then build_dir+=-static; fi

echo "=== build: Release + ${link_flags} (${build_dir}/) ===" >&2
cmake -B "$build_dir" -S "$source_dir" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS="$link_flags" >/dev/null
cmake --build "$build_dir" -j "$jobs" --target "$target" >/dev/null
bench_bin=$(pwd)/$build_dir/$binary

# gmon.out and the harness's BENCH_*.json land in the working directory.
run_dir=$(mktemp -d)
trap 'rm -rf "$run_dir"' EXIT
if [[ -n "$workload" ]]; then
  # Defaults first: a repeated flag's last value wins in h2bench.
  echo "=== run: h2bench --workload $workload ${args[*]:-} ===" >&2
  (cd "$run_dir" && "$bench_bin" --workload "$workload" --seed 1 \
    --seconds 10 --trace 0 "${args[@]}" >/dev/null)
else
  echo "=== run: fig2b sweep, --jobs 1 ${args[*]:-} ===" >&2
  (cd "$run_dir" && env -u H2PUSH_CACHE -u H2PUSH_JOBS \
    "$bench_bin" --jobs 1 "${args[@]}" >/dev/null)
fi

gprof -b -p "$bench_bin" "$run_dir/gmon.out" > "$run_dir/flat.txt"
python3 - "$run_dir/flat.txt" "$top" <<'EOF'
import re
import sys

# Flat-profile rows: %time, cumulative s, self s, then optionally calls and
# two per-call columns, then the demangled name.
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
# The namespace that appears first in the name decides: a std:: template
# instantiated over h2push types is std time, h2push::h2::... is h2. A bare
# C symbol (no scope, no parameter list) is libc's: only a static build
# (--static) links those into the executable.
owner = re.compile(r"h2push::(\w+)::|(std::|__gnu_cxx::)")
c_symbol = re.compile(r"[A-Za-z_][\w.]*")

by_layer = {}
funcs = []
for line in open(sys.argv[1]):
    m = row.match(line)
    if not m:
        continue
    self_s, name = float(m.group(1)), m.group(2).strip()
    o = owner.search(name)
    if o is None and c_symbol.fullmatch(name) and name != "main":
        layer = "libc"
    elif o is None:
        layer = "other"
    elif o.group(1):
        layer = o.group(1)
    else:
        layer = "std"
    by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    funcs.append((self_s, layer, name))

total = sum(by_layer.values())
if total <= 0:
    sys.exit("profile.sh: gprof recorded no samples")
print("%-10s %9s %7s" % ("layer", "self s", "share"))
for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
    if s <= 0:
        continue
    print("%-10s %9.2f %6.1f%%" % (layer, s, 100.0 * s / total))
print("%-10s %9.2f" % ("total", total))
top = int(sys.argv[2])
if top > 0:
    print()
    for self_s, layer, name in sorted(funcs, reverse=True)[:top]:
        print("%7.2f %5.1f%%  %-8s %s" % (self_s, 100.0 * self_s / total,
                                          layer, name[:110]))
EOF
