#!/usr/bin/env bash
# CI entry point: tier-1 build (warnings are errors) + tests, the same
# tests under AddressSanitizer + UndefinedBehaviorSanitizer
# (-DRHSD_SANITIZE=address,undefined), a ThreadSanitizer smoke of the
# parallel experiment engine (tests/exec_smoke.cpp, -DRHSD_SANITIZE=
# thread), the chaos digest diff, and the perf gates.
#
# Usage: ./ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "== tier-1: build + ctest =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== asan+ubsan: every ctest case under -fsanitize=address,undefined =="
# Any UBSan report aborts its test (halt_on_error) instead of scrolling
# past as a warning in an otherwise passing run.
cmake -B build-asan -S . -DRHSD_SANITIZE=address,undefined
cmake --build build-asan -j "${JOBS}"
(cd build-asan &&
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -j "${JOBS}")

echo "== tsan smoke: experiment engine under -fsanitize=thread =="
# The exec engine (RunTrials / ParallelFor) is the only threaded code.
cmake -B build-tsan -S . -DRHSD_SANITIZE=thread
cmake --build build-tsan -j "${JOBS}" --target exec_smoke
./build-tsan/tests/exec_smoke

echo "== chaos determinism: fixed-seed storms, back-to-back digest diff =="
# The chaos harness asserts its invariants (tenant isolation,
# acknowledged-write durability) inside gtest; here each binary
# additionally runs twice and the CHAOS_DIGEST lines are diffed,
# catching cross-process nondeterminism (iteration order of an
# unordered container, address-dependent hashing, uninitialised reads)
# that a single run cannot see.  Both the normal and the ASan+UBSan
# build must agree with themselves.
chaos_digests() {  # chaos_digests <binary> <outfile>
  "$1" >"$2.log" 2>&1 || { cat "$2.log" >&2; return 1; }
  grep '^CHAOS_DIGEST' "$2.log" >"$2"
  [[ -s "$2" ]] || { echo "no CHAOS_DIGEST lines from $1" >&2; return 1; }
}
for BUILD_DIR in build build-asan; do
  BIN="${BUILD_DIR}/tests/chaos_torture_test"
  chaos_digests "${BIN}" "${BUILD_DIR}/chaos.run1"
  chaos_digests "${BIN}" "${BUILD_DIR}/chaos.run2"
  diff "${BUILD_DIR}/chaos.run1" "${BUILD_DIR}/chaos.run2" || {
    echo "chaos gate: nondeterministic digests in ${BUILD_DIR}" >&2
    exit 1
  }
  echo "${BUILD_DIR}: $(wc -l <"${BUILD_DIR}/chaos.run1") digests stable"
done

echo "== perf gate: batched hammer hot path =="
# bench_micro emits BENCH_hotpath.json into its working directory; the
# hot-path comparison runs from main() even when the filter matches no
# registered benchmark, which keeps the gate fast.
PERF_DIR="build/perf-gate"
rm -rf "${PERF_DIR}"
mkdir -p "${PERF_DIR}"
(cd "${PERF_DIR}" && ../bench/bench_micro \
    --benchmark_filter='^$' >/dev/null)
# The §5 mitigation matrix at production trace lengths (0.5 s of
# hammering per triple): BenchReport merges its throughput metric into
# the same BENCH_hotpath.json.
(cd "${PERF_DIR}" && ../bench/bench_mitigations >/dev/null)
# The N-tenant event-loop sweeps (--quick keeps them small): the
# read-heavy scale sweep merges cloud_tenant_iops, the TRR+PARA sweep
# merges cloud_mitigated_iops, the mixed read/write sweep merges
# cloud_write_iops, and the idle-stream A/B merges
# loop_idle_stream_overhead into the same report.  The binary itself
# asserts the mitigated sweep engaged TRR and PARA, the rate-limited
# point stayed under its token-bucket cap, and the idle streams left
# the simulated outputs unchanged.
(cd "${PERF_DIR}" && ../bench/bench_cloud_scale --quick >/dev/null)
REPORT="${PERF_DIR}/BENCH_hotpath.json"
if [[ ! -f "${REPORT}" ]]; then
  echo "perf gate: bench_micro produced no ${REPORT}" >&2
  exit 1
fi

# Trajectory check against the newest archived report (before this
# run's report is archived): any *_speedup ratio or *_per_s / *_iops
# throughput metric regressing by more than 20% fails the gate even while still
# above its fixed floor, so slow perf erosion can't hide under a
# generous absolute threshold.
extract_metric() {  # extract_metric <file> <key>
  sed -n "s/.*\"$2\": *\\([0-9.eE+-]*\\).*/\\1/p" "$1" | head -n 1
}

BASELINE="$(ls -1 bench_history/BENCH_hotpath.*.json 2>/dev/null \
  | sort | tail -n 1 || true)"
if [[ -n "${BASELINE}" ]]; then
  echo "trajectory baseline: ${BASELINE}"
  for KEY in $(sed -n \
      's/.*"\([a-z_]*_speedup\|[a-z_]*_per_s\|[a-z_]*_iops\)".*/\1/p' \
      "${REPORT}"); do
    NEW="$(extract_metric "${REPORT}" "${KEY}")"
    OLD="$(extract_metric "${BASELINE}" "${KEY}")"
    [[ -z "${NEW}" || -z "${OLD}" ]] && continue
    echo "${KEY}: ${OLD} -> ${NEW}"
    awk -v n="${NEW}" -v o="${OLD}" 'BEGIN { exit !(n + 0 >= 0.8 * o) }' || {
      echo "perf gate: ${KEY} regressed >20% (${OLD} -> ${NEW})" >&2
      exit 1
    }
  done
else
  echo "trajectory check: no bench_history baseline yet, skipping"
fi

# Archive the raw report so regressions can be traced across CI runs.
mkdir -p bench_history
cp "${REPORT}" \
  "bench_history/BENCH_hotpath.$(date -u +%Y%m%dT%H%M%SZ).$$.json"

gate_floor() {  # gate_floor <key> <floor>
  local SPEEDUP
  SPEEDUP="$(extract_metric "${REPORT}" "$1")"
  if [[ -z "${SPEEDUP}" ]]; then
    echo "perf gate: $1 missing from ${REPORT}" >&2
    exit 1
  fi
  echo "$1 = ${SPEEDUP} (gate: >= $2)"
  awk -v s="${SPEEDUP}" -v f="$2" 'BEGIN { exit !(s + 0 >= f + 0) }' || {
    echo "perf gate: $1 ${SPEEDUP} < $2" >&2
    exit 1
  }
}

gate_ceiling() {  # gate_ceiling <key> <ceiling>
  local VALUE
  VALUE="$(extract_metric "${REPORT}" "$1")"
  if [[ -z "${VALUE}" ]]; then
    echo "perf gate: $1 missing from ${REPORT}" >&2
    exit 1
  fi
  echo "$1 = ${VALUE} (gate: <= $2)"
  awk -v v="${VALUE}" -v c="$2" 'BEGIN { exit !(v + 0 <= c + 0) }' || {
    echo "perf gate: $1 ${VALUE} > $2" >&2
    exit 1
  }
}

gate_floor hammer_batched_speedup 3.0
gate_floor hammer_batched_trr_speedup 2.0
# >=20x over the ~0.056 scenarios/s the scalar round loop managed at
# production trace lengths (0.5 s of hammering per triple, single core).
gate_floor mitigations_scenarios_per_s 1.12
# Simulated commands retired per host second by the event loop across
# the --quick tenant sweep (floor leaves headroom for loaded CI
# machines).
gate_floor cloud_tenant_iops 100000
# Write commands retired per host second across the mixed read/write
# sweep.
gate_floor cloud_write_iops 40000
# The tenant sweep again with TRR + PARA live: the mitigations' replay
# must not collapse the loop's throughput.
gate_floor cloud_mitigated_iops 50000
# Event-loop host time per command with 1022 idle queue pairs
# attached, over the same 2-tenant script without them (~1.3-1.7x with
# the work bitmap; a per-pick scan of every stream lands at 10-17x).
gate_ceiling loop_idle_stream_overhead 2.0
# hammer_pattern() host time per row-call at 1024 rows over 64 rows
# (~1.7x with the indexed per-row side tables; linear ones, O(P^2) per
# call, land near 11x).
gate_ceiling hammer_pattern_row_cost_ratio_1024_to_64 4
# The PARA Bernoulli scan (Rng::bernoulli_hits, the loop on a register
# copy of the generator) over the loop it replaced, which loaded and
# stored the member generator's state on every draw (1.1-1.3x on 4
# vCPUs): not slower.
gate_floor para_scan_speedup 0.9

echo "== ci.sh: all green =="
