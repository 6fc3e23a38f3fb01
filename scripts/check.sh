#!/usr/bin/env bash
# Full verification: the tier-1 build + test pass, then the simulator's
# bit-exactness against the recorded sweep digests, the fig-level goldens
# and the trace goldens (tests/golden/), then a live soak bounding the
# daemon's memory per request, then a warning-free Release build
# (-Werror), then the same test suite under AddressSanitizer +
# UndefinedBehaviorSanitizer, then the threaded runner tests under
# ThreadSanitizer (separate build dir per sanitizer — sanitized objects are
# not ABI-compatible with each other or the plain build; TSan in particular
# excludes ASan).
#
#   scripts/check.sh            # tier-1 + digests + goldens + traces +
#                               # soak + -Werror + ASan/UBSan + TSan
#   scripts/check.sh --fast     # tier-1 only
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "=== tier-1: configure + build + ctest (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== run cache: warm sweep under H2PUSH_CACHE_VERIFY (build/) ==="
# Cold pass fills a throwaway store; the warm pass answers from it with
# every hit recomputed and compared byte-for-byte (core/memo.h) — any
# divergence between cached and fresh simulation aborts the harness.
cache_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir"' EXIT
cmake --build build -j "$jobs" --target bench_fig3b_push_amount >/dev/null
bench_bin=$(pwd)/build/bench/bench_fig3b_push_amount
(cd "$cache_dir" &&
  H2PUSH_CACHE="$cache_dir/store" \
    "$bench_bin" --quick --jobs "$jobs" >/dev/null &&
  H2PUSH_CACHE="$cache_dir/store" H2PUSH_CACHE_VERIFY=all \
    "$bench_bin" --quick --jobs "$jobs" >/dev/null)
echo "warm-cache verify pass OK"

if [[ "${1:-}" == "--fast" ]]; then
  echo "=== OK (fast mode: digest, golden and sanitizer passes skipped) ==="
  exit 0
fi

echo "=== sweep digests: seeds 0-3 of both sweeps (.bench_build/h2bench) ==="
# Every simulated result must stay bit-exact: the benchmark binary, built
# the way h2bench/run.py builds it (Release), reproduces the digest
# h2bench/digests.txt records for each (workload, seed).
bench_build=.bench_build/h2bench
if [[ ! -f "$bench_build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S h2bench -B "$bench_build" -DCMAKE_BUILD_TYPE=Release \
    "${generator[@]}" >/dev/null
fi
cmake --build "$bench_build" -j "$(( jobs < 4 ? jobs : 4 ))" --target h2bench
for workload in sweep-fig2b sweep-nopush; do
  for seed in 0 1 2 3; do
    expected=$(grep "^$workload $seed " h2bench/digests.txt)
    actual=$("$bench_build/h2bench" --print-digest --workload "$workload" \
      --seed "$seed")
    if [[ "$actual" != "$expected" ]]; then
      echo "digest mismatch: want '$expected', got '$actual'" >&2
      exit 1
    fi
  done
done
echo "8 sweep digests match"

echo "=== fig-level goldens: interleaving, critical CSS, hints, digests, H1 (build/) ==="
# The digests above only cover the parent-first scheduler over HTTP/2.
# These benches also run the interleaving hard switch, critical-CSS
# rewriting, preload hints, cache digests and the HTTP/1.1 arm
# (bench_h1_baseline); their stdout, less the wall-clock 'elapsed:' and
# 'report:' lines, must match tests/golden/<name>.txt.
golden_benches=(bench_fig5_interleaving bench_ablation_scheduling
  bench_fig4_custom_strategies bench_ext_cache_digest bench_h1_baseline)
cmake --build build -j "$jobs" --target "${golden_benches[@]}" >/dev/null
golden_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir" "$golden_dir"' EXIT
bench_dir=$(pwd)/build/bench
for name in "${golden_benches[@]}"; do
  (cd "$golden_dir" &&
    env -u H2PUSH_CACHE "$bench_dir/$name" --quick --jobs 1) |
    grep -v -e '^elapsed: ' -e '^report: ' >"$golden_dir/$name.txt"
  if ! diff -u "tests/golden/$name.txt" "$golden_dir/$name.txt"; then
    echo "golden mismatch: $name" >&2
    exit 1
  fi
done
echo "${#golden_benches[@]} fig-level goldens match"

echo "=== trace goldens: trace_page_load w1 + s5, both arms (build/) ==="
# Traced runs keep per-packet link departure events (sim/link.h) that
# untraced runs retire lazily, and they record every simulated event, so
# the trace JSON and summaries pin the event order byte for byte. Their
# sha256 sums must match tests/golden/trace_page_load.sha256.
cmake --build build -j "$jobs" --target trace_page_load >/dev/null
trace_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir" "$golden_dir" "$trace_dir"' EXIT
for site in w1 s5; do
  mkdir -p "$trace_dir/$site"
  ./build/examples/trace_page_load "$site" "$trace_dir/$site" >/dev/null
done
trace_sums=$(pwd)/tests/golden/trace_page_load.sha256
if ! (cd "$trace_dir" && sha256sum --check --strict --quiet "$trace_sums"); then
  echo "trace golden mismatch" >&2
  exit 1
fi
echo "trace goldens match"

echo "=== live soak: daemon memory per request on one connection (build/) ==="
# A connection keeps nothing for the streams it has closed, so one
# h2pushload connection held open for ~10 s must not grow the daemon's
# peak RSS (VmHWM) with the requests it serves. A connection that kept
# its closed streams grew it by about 160 B per request; the bound is 16 B.
cmake --build build -j "$jobs" --target h2pushd h2pushload >/dev/null
soak_dir=$(mktemp -d)
daemon_pid=
trap 'rm -rf "$cache_dir" "$golden_dir" "$trace_dir" "$soak_dir";
  [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null' EXIT
./build/tools/h2pushd --port 0 2>"$soak_dir/daemon.err" &
daemon_pid=$!
port=
for _ in $(seq 100); do
  port=$(sed -n 's/^h2pushd: listening on [^:]*:\([0-9]*\) .*/\1/p' \
    "$soak_dir/daemon.err")
  [[ -n "$port" ]] && break
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "h2pushd did not start:" >&2
  cat "$soak_dir/daemon.err" >&2
  exit 1
fi
vm_hwm_kb() { awk '/^VmHWM:/ {print $2}' "/proc/$daemon_pid/status"; }
hwm_before=$(vm_hwm_kb)
./build/tools/h2pushload --port "$port" --connections 1 --landing-only \
  --duration 10 --json >"$soak_dir/load.json"
hwm_after=$(vm_hwm_kb)
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
requests=$(sed -n 's/.*"requests_ok": \([0-9]*\).*/\1/p' "$soak_dir/load.json")
growth=$(( (hwm_after - hwm_before) * 1024 ))
echo "daemon VmHWM ${hwm_before} -> ${hwm_after} kB over ${requests} requests"
if (( requests == 0 || growth > 16 * requests )); then
  echo "daemon memory grows with requests served: $growth B" \
    "over $requests requests (bound 16 B each)" >&2
  exit 1
fi
echo "daemon memory per request: $(( growth / requests )) B (bound 16 B)"

echo "=== warnings: Release build with -Werror (build-werror/) ==="
# The optimiser sees more at -O3 than in the default RelWithDebInfo build
# (GCC 12's -Wrestrict reports, for one, appeared only here), so the whole
# tree — library, tests, benches, tools — must build warning-free as
# Release.
cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-werror -j "$jobs"

echo "=== sanitizers: ASan + UBSan incl. fuzz smoke (build-asan/) ==="
# The suite includes the seeded mini-fuzz tier (tests/fuzz_*), so this stage
# is also the fuzz-smoke pass: every generator/mutator/harness trajectory
# runs under ASan+UBSan at full iteration counts. Export H2PUSH_FUZZ_ITERS
# to scale the fuzz tier (e.g. =500 for a quick pre-push cycle).
cmake -B build-asan -S . -DH2PUSH_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$jobs"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "=== sanitizers: TSan on the parallel runner + fuzz smoke (build-tsan/) ==="
cmake -B build-tsan -S . -DH2PUSH_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" --target runner_test browser_test \
  fuzz_frame_test fuzz_hpack_test fuzz_connection_test fuzz_sim_test \
  live_loopback_test
# Force a multi-threaded sweep even on 1-core CI boxes.
H2PUSH_JOBS=4 TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R ParallelRunner
# The process-wide parsed-stylesheet cache, shared by runner threads: four
# threads looking up, waiting on each other's parses and evicting
# concurrently.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R StylesheetCache
# Mini-fuzz under TSan: the suites are single-threaded by design, but the
# instrumented run still validates the atomics/fences the codec hot paths
# share with the threaded runner.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R 'Fuzz'
# Live serving loopback smoke under TSan: multi-threaded accept (SO_REUSEPORT
# workers), cross-thread shutdown/post, and the load generator's worker
# threads all race-checked over real sockets.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R 'LiveLoopback'

echo "=== OK ==="
