#!/usr/bin/env bash
# CI entry point: tier-1 build (warnings are errors) + tests, the same
# tests under AddressSanitizer + UndefinedBehaviorSanitizer
# (-DRHSD_SANITIZE=address,undefined), a ThreadSanitizer smoke of the
# parallel experiment engine (tests/exec_smoke.cpp, -DRHSD_SANITIZE=
# thread), the chaos digest diff, the repo benchmark's pinned output
# digests, and the perf gates.
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

echo "== perfbench: pinned digests of the simulated outputs =="
# Each workload's seed-1 digest is pinned in perfbench/src/main.cpp
# (kPinned): a run exits 0 only when every pass's digest matches it.
# Its last stdout line is the JSON result, which must also report
# correct outputs and no failed operations.
for W in exploit mitigations cloud_read cloud_rw; do
  RESULT="$(python3 perfbench/run.py --workload "${W}" --seed 1 \
      --seconds 1 --trace 0 | tail -n 1)" || {
    echo "perfbench gate: ${W} exited nonzero" >&2
    exit 1
  }
  if [[ "${RESULT}" != *'"correct": true,'* ||
        "${RESULT}" != *'"failed": 0,'* ]]; then
    echo "perfbench gate: ${W}: ${RESULT:0:200}" >&2
    exit 1
  fi
  echo "perfbench ${W}: pinned digest, correct, 0 failed"
done

echo "== perfbench: pinned device counts of the mitigations matrix =="
# The mitigations digest covers only the 16 MitigationResult rows, which
# leave out para_refreshes and every NAND count: a wrong PARA scan that
# still ends in zero flips would pass it.  A traced pass reports the
# matrix's dram.*, ftl.* and nand.* metrics (sums over its trials); each
# must equal its value pinned here, and no other such metric may appear.
RESULT="$(python3 perfbench/run.py --workload mitigations --seed 1 \
    --seconds 1 --trace 1 | tail -n 1)" || {
  echo "perfbench counts gate: traced mitigations exited nonzero" >&2
  exit 1
}
python3 -c '
import json, sys
PINNED = {
    "dram.activations": 3425550859,
    "dram.bitflips": 18213,
    "dram.cache_hit_ratio": 0.9998863680412615,
    "dram.ecc_corrected": 24,
    "dram.para_refreshes": 400493,
    "dram.trr_refreshes": 132544,
    "ftl.flash_programs": 546602,
    "ftl.flash_reads": 802147,
    "ftl.gc_relocations": 115873,
    "ftl.gc_runs": 7559,
    "ftl.l2p_dram_reads": 3832879234,
    "ftl.scrub_runs": 20028,
    "ftl.unmapped_reads": 765443662,
    "ftl.write_amp": 1.2690160170315907,
    "nand.erases": 7579,
    "nand.programs": 547967,
    "nand.reads": 895364,
}
got = {k: v["value"] for k, v in json.loads(sys.argv[1])["metrics"].items()
       if k.startswith(("dram.", "ftl.", "nand."))}
bad = sorted(k for k in PINNED.keys() | got.keys()
             if PINNED.get(k) != got.get(k))
for k in bad:
    print(f"perfbench counts gate: {k}: pinned {PINNED.get(k)}, "
          f"got {got.get(k)}", file=sys.stderr)
sys.exit(1 if bad else 0)
' "${RESULT}"
echo "perfbench mitigations: every dram.*, ftl.* and nand.* count as pinned"

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

# Trajectory check against the newest archived reports (before this
# run's report is archived): any *_speedup ratio or *_per_s / *_iops
# throughput metric (digits allowed in the name, as in l2p_touch_speedup)
# regressing by more than 20% fails the gate even while still
# above its fixed floor, so slow perf erosion can't hide under a
# generous absolute threshold.  Each key's baseline is its median over
# the newest three archived reports (those of them that carry the key),
# so one report archived in a slow or fast host spell cannot pin the
# baseline on its own.
extract_metric() {  # extract_metric <file> <key>
  sed -n "s/.*\"$2\": *\\([0-9.eE+-]*\\).*/\\1/p" "$1" | head -n 1
}

median_metric() {  # median_metric <key> <file>...; empty if none has it
  local KEY="$1" F
  shift
  for F in "$@"; do extract_metric "${F}" "${KEY}"; done | sort -g |
    awk '{ v[NR] = $1 }
         END { if (NR % 2) print v[(NR + 1) / 2]
               else if (NR) printf "%.10g\n", (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

mapfile -t BASELINES < <(ls -1 bench_history/BENCH_hotpath.*.json \
  2>/dev/null | sort | tail -n 3 || true)
if [[ ${#BASELINES[@]} -gt 0 ]]; then
  echo "trajectory baseline: median of ${BASELINES[*]}"
  for KEY in $(sed -n \
      's/.*"\([a-z0-9_]*_speedup\|[a-z0-9_]*_per_s\|[a-z0-9_]*_iops\)".*/\1/p' \
      "${REPORT}"); do
    NEW="$(extract_metric "${REPORT}" "${KEY}")"
    OLD="$(median_metric "${KEY}" "${BASELINES[@]}")"
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
# bench_micro's 4 KiB unmapped reads through one depth-16 queue pair over
# the same reads as NvmeController::read() calls, host time per command
# (1.27-1.43 with fixed-ring queue pairs and a one-pointer Status;
# 1.41-1.71 with the std::deque rings and string-holding Status they
# replaced; 8 reports each on 4 vCPUs).
gate_ceiling qp_overhead_ratio 1.5
# hammer_pattern() host time per row-call at 1024 rows over 64 rows
# (~1.7x with the indexed per-row side tables; linear ones, O(P^2) per
# call, land near 11x).
gate_ceiling hammer_pattern_row_cost_ratio_1024_to_64 4
# The PARA Bernoulli scan (Rng::bernoulli_hits: 314,092 draws in 16
# jump-ahead lanes of AVX-512 vectors, bit-exact with the scalar loop)
# over the per-draw loop on a member generator (3.3-4.2x on 4 vCPUs with
# AVX-512; the scalar loop alone read 1.1-1.3x).
gate_floor para_scan_speedup 2.0
# The integrity scrub after one hammered table row: the walk over the
# flipped rows' entries against the full 4096-entry walk that one extra
# unrelated poke forces (30-41x on 4 vCPUs).
gate_floor scrub_walk_speedup 10
# The FTL's amplified L2P access: DramDevice::read() of a 4-byte entry
# with 5 touches (one data access, then one 1-row replay of the 5
# activations) over five 1-touch reads, bare and under TRR + PARA
# (6.5-7.6x and 2.1-2.3x over 4 reports on 4 vCPUs; the bare ratio read
# 2.7-3.7x before the quiet-row early-out, which the 4.0 floor guards).
gate_floor l2p_touch_speedup 4.0
gate_floor l2p_touch_mitigated_speedup 1.3

echo "== ci.sh: all green =="
