#!/usr/bin/env bash
#===-- scripts/tier1.sh - tier-1 gate: build, tests, TSan concurrency ----===//
#
# The tier-1 gate for this repo:
#   1. Release build + full ctest suite   (the historical tier-1 contract)
#   2. Bench smoke: every benchmark binary runs one quick iteration, so a
#      bench that only compiles but crashes at runtime (bad flag plumbing,
#      tier-up in a fresh engine, ...) fails the gate instead of rotting.
#   3. Serve threshold tiering: `pgmpi serve` replays a trace whose hot
#      class flips mid-stream; the gate asserts it exits 0, stores a
#      non-empty merged profile and tiers up at least two closures by
#      invocation count.
#   4. Bounded-memory soak: `pgmpi serve` (boundary reclamation on by
#      default) replays the same trace once and 64x-repeated; peak RSS
#      of the long run must plateau instead of scaling with the request
#      count.
#   5. End-to-end benchmark smoke: `pgmpbench/run.py --smoke` builds the
#      pgmpbench binary from this tree and runs every workload at smoke
#      size with its result oracle, the per-layer repeatability check
#      and the oracle self-test.
#   6. ASan fault matrix: the ExecGuard and FaultInjection suites under
#      AddressSanitizer — every injected fault and guard trip must unwind
#      without leaking or corrupting the engine, which only ASan can
#      actually prove. The same stage runs the TieredExec suite (the VM
#      refunds batched source counters during unwinding), the Heap and
#      Reclaim suites, the soak replay, and the pgmpbench smoke built with
#      -fsanitize=address (in build-asan-e2e/): a store that skips the
#      generational write barrier leaves a tenured object pointing into a
#      freed nursery chunk, and ASan faults where a real workload reads it.
#   7. TSan build + the concurrency tests (ParallelProfile, ShardedCounterStore,
#      ProfileSnapshot, Heap) — the sharded counter runtime and the
#      per-engine arena heaps must be provably race-free, not just
#      pass-by-luck.
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan]
#
#===----------------------------------------------------------------------===//

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
for ARG in "$@"; do
  [[ "$ARG" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$ARG" == "--skip-asan" ]] && SKIP_ASAN=1
done

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: release build + full test suite =="
cmake --preset default
cmake --build --preset default -j "$JOBS"
ctest --preset default

echo "== tier-1: bench smoke (one quick iteration per binary) =="
# Note: the bundled google-benchmark wants a plain double here ("0.01"),
# not the newer "0.01s" form.
for BENCH in build/bench/bench*; do
  [[ -x "$BENCH" ]] || continue
  echo "-- $BENCH"
  "$BENCH" --benchmark_min_time=0.01 --benchmark_repetitions=1 > /dev/null
done

echo "== tier-1: serve threshold tiering (pgmpi serve --stats) =="
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVE_DIR"' EXIT
cat > "$SERVE_DIR/workload.scm" <<'EOF'
(define (work-a n)
  (if (= n 0) 0 (+ 1 (work-a (- n 1)))))
(define (work-b n)
  (if (= n 0) 0 (+ 2 (work-b (- n 1)))))
(define (req-a) (work-a 300))
(define (req-b) (work-b 300))
EOF
{
  for _ in $(seq 1 200); do echo "(req-a)"; done
  echo "; hot class flips here"
  for _ in $(seq 1 200); do echo "(req-b)"; done
} > "$SERVE_DIR/trace.txt"
SERVE_LOG="$SERVE_DIR/serve.log"
build/tools/pgmpi serve --replay "$SERVE_DIR/trace.txt" --jobs 2 --stats \
  --profile-out "$SERVE_DIR/out.profile" \
  "$SERVE_DIR/workload.scm" 2> "$SERVE_LOG"
cat "$SERVE_LOG"
# Both hot classes cross the invocation threshold (worker 0's stats row).
grep -Eq '^ +tier-ups +([2-9]|[1-9][0-9]+)$' "$SERVE_LOG" \
  || { echo "FAIL: serve tiered up fewer than two closures"; exit 1; }
[[ -s "$SERVE_DIR/out.profile" ]] \
  || { echo "FAIL: serve stored no merged profile"; exit 1; }

echo "== tier-1: bounded-memory soak (pgmpi serve, boundary reclamation) =="
# A long replay under boundary reclamation must run in bounded memory:
# both runs replay the SAME trace file (so the resident trace costs the
# same), the long run just repeats it 64x; peak RSS must stay within a
# slack factor of the short run's peak. Without reclamation (or with
# per-request code units adopted forever) memory grows linearly in the
# request count and the check fails by an order of magnitude.
cat > "$SERVE_DIR/soak.scm" <<'EOF'
(define (build n acc)
  (if (= n 0) acc (build (- n 1) (cons n acc))))
(define (req) (length (build 2000 '())))
EOF
for _ in $(seq 1 500); do echo "(req)"; done > "$SERVE_DIR/soak.txt"
soak_rss() { # peak RSS (KiB) of one serve replay
  local REPEAT="$1"
  local STATUS
  build/tools/pgmpi serve --replay "$SERVE_DIR/soak.txt" --repeat "$REPEAT" \
    --jobs 1 "$SERVE_DIR/soak.scm" 2> /dev/null &
  local PID=$!
  local PEAK=0
  while kill -0 "$PID" 2>/dev/null; do
    STATUS="$(grep -s VmHWM "/proc/$PID/status" | awk '{print $2}')" || true
    [[ -n "${STATUS:-}" && "$STATUS" -gt "$PEAK" ]] && PEAK="$STATUS"
    sleep 0.05
  done
  wait "$PID" || { echo "FAIL: soak replay exited non-zero" >&2; return 1; }
  echo "$PEAK"
}
RSS_SHORT="$(soak_rss 1)"
RSS_LONG="$(soak_rss 64)"
echo "-- soak peak RSS: ${RSS_SHORT} KiB (500 req) vs ${RSS_LONG} KiB (32000 req)"
# Plateau check: 64x the requests must cost well under 2x the memory.
[[ "$RSS_LONG" -lt $((RSS_SHORT * 2)) ]] \
  || { echo "FAIL: serve RSS grows with request count (reclamation broken)"; exit 1; }

echo "== tier-1: end-to-end benchmark smoke (pgmpbench --smoke) =="
python3 pgmpbench/run.py --smoke

if [[ "$SKIP_ASAN" == 1 ]]; then
  echo "== tier-1: ASan fault matrix skipped (--skip-asan) =="
else
  echo "== tier-1: ASan build + fault-matrix suites =="
  cmake --preset asan
  cmake --build --preset asan -j "$JOBS"
  # Guard trips and injected faults exercise every error-unwind path in
  # the engine; ASan turns a leaked or clobbered unwind into a failure.
  # Heap and Reclaim join the matrix: evacuation move-construction and
  # the exactly-once destructor discipline are precisely the contracts
  # ASan can falsify (double destruction, use-after-evacuation, leaks).
  # TieredExec joins because the VM refunds batched source counters while
  # an exception unwinds its frames.
  ASAN_OPTIONS="halt_on_error=1" \
    ctest --preset asan -R 'ExecGuard|FaultInjection|Heap|Reclaim|TieredExec'
  # The bounded-memory soak path again, this time under ASan: thousands
  # of boundary collections (evacuation move-construction, DtorNode
  # transfer, chunk recycling) with leak detection on. RSS itself is
  # asserted by the release-build soak stage — ASan's shadow memory
  # makes absolute RSS meaningless here, so this run is about proving
  # the reclamation path leak- and corruption-free at soak length.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    build-asan/tools/pgmpi serve --replay "$SERVE_DIR/soak.txt" \
    --repeat 8 --jobs 1 "$SERVE_DIR/soak.scm" 2> /dev/null \
    || { echo "FAIL: ASan soak replay failed"; exit 1; }
  # Every workload of the end-to-end benchmark under ASan. run.py joins a
  # relative --build onto the repository root, so pass an absolute path.
  cmake -S pgmpbench -B build-asan-e2e -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  ASAN_OPTIONS="halt_on_error=1" \
    python3 pgmpbench/run.py --smoke --build "$PWD/build-asan-e2e" \
    || { echo "FAIL: ASan pgmpbench smoke failed"; exit 1; }
fi

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "== tier-1: TSan pass skipped (--skip-tsan) =="
  exit 0
fi

echo "== tier-1: TSan build + concurrency tests =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
# TSAN_OPTIONS makes any report a hard failure even if the process would
# otherwise exit 0.
TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan

echo "== tier-1: all gates passed =="
