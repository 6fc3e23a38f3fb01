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
set -euo pipefail
cd "$(dirname "$0")/.."

link_flags=-pg
static=0
top=0
workload=
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
    *)
      args+=("$1")
      shift
      ;;
  esac
done

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

jobs=$(nproc 2>/dev/null || echo 4)
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
