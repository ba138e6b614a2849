#!/usr/bin/env bash
# Kernel and load benchmark driver (perfbench/ is the end-to-end benchmark).
# Builds the Release tree and runs two gated sections:
#   kernels  micro_substrate kernels vs the retained serial reference kernels
#            (same binary) at AUTOMC_THREADS=1, the pool's ParallelFor
#            overhead at AUTOMC_THREADS=4, plus fig4_search_curves end to end
#            at both thread counts -> BENCH_kernels.json
#   load     load_replay against a single server and a 2-worker fleet
#            -> BENCH_load.json
# Every selected section runs; the script exits non-zero at the end when
# any section's gate failed.
#
# Usage:
#   scripts/bench.sh              # both sections (includes two ~minutes-long
#                                 # end-to-end search passes)
#   AUTOMC_BENCH_SKIP_E2E=1 scripts/bench.sh   # without the e2e search passes
#   AUTOMC_BENCH_SECTIONS=load scripts/bench.sh   # regenerate one BENCH_*.json
#       (comma-separated subset of: kernels, load)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${AUTOMC_BENCH_BUILD_DIR:-build}"
OUT_JSON="BENCH_kernels.json"
FILTER='BM_MatMul|BM_MatMulRef|BM_GemmConvShape|BM_MatrixMultiply|BM_Conv2dForward|BM_Conv2dForwardRef|BM_Conv2dBackward|BM_Conv2dBackwardRef|BM_ParallelForOverhead|BM_FmoPredict'

SECTIONS="${AUTOMC_BENCH_SECTIONS:-kernels,load}"
want() { [[ ",${SECTIONS}," == *",$1,"* ]]; }

targets=()
want kernels && targets+=(micro_substrate fig4_search_curves)
want load && targets+=(load_replay automc_serve)
if [[ ${#targets[@]} -eq 0 ]]; then
  echo "AUTOMC_BENCH_SECTIONS=${SECTIONS} selects no section" >&2
  exit 1
fi

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j --target "${targets[@]}" >/dev/null

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
failed_gates=()

if want kernels; then

echo "== micro kernels, AUTOMC_THREADS=1 =="
AUTOMC_THREADS=1 "${BUILD_DIR}/bench/micro_substrate" \
  --benchmark_filter="${FILTER}" \
  --benchmark_out="${tmpdir}/micro_t1.json" --benchmark_out_format=json \
  --benchmark_min_time=0.2
# Kernels never read the thread count; only the pool's own overhead does.
echo "== ParallelFor overhead, AUTOMC_THREADS=4 =="
AUTOMC_THREADS=4 "${BUILD_DIR}/bench/micro_substrate" \
  --benchmark_filter='BM_ParallelForOverhead' \
  --benchmark_out="${tmpdir}/micro_t4.json" --benchmark_out_format=json \
  --benchmark_min_time=0.2

E2E_T1="null"
E2E_T4="null"
if [[ -z "${AUTOMC_BENCH_SKIP_E2E:-}" ]]; then
  elapsed() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", b - a }'; }
  echo "== end-to-end fig4_search_curves, AUTOMC_THREADS=1 =="
  start=$(date +%s.%N)
  AUTOMC_THREADS=1 "${BUILD_DIR}/bench/fig4_search_curves" >/dev/null
  E2E_T1=$(elapsed "${start}" "$(date +%s.%N)")
  echo "   ${E2E_T1}s"
  echo "== end-to-end fig4_search_curves, AUTOMC_THREADS=4 =="
  start=$(date +%s.%N)
  AUTOMC_THREADS=4 "${BUILD_DIR}/bench/fig4_search_curves" >/dev/null
  E2E_T4=$(elapsed "${start}" "$(date +%s.%N)")
  echo "   ${E2E_T4}s"
fi

python3 - "${tmpdir}/micro_t1.json" "${tmpdir}/micro_t4.json" \
    "${E2E_T1}" "${E2E_T4}" "${OUT_JSON}" <<'PY' || failed_gates+=(kernels)
import json, os, sys

t1_path, t4_path, e2e_t1, e2e_t4, out_path = sys.argv[1:6]

def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = {
            "real_ms": b["real_time"] / 1e6
            if b.get("time_unit") == "ns"
            else b["real_time"],
            "items_per_second": b.get("items_per_second"),
        }
    return out

t1 = load(t1_path)
t4 = load(t4_path)

def entry(new_name, ref_name):
    """Speedup of the production kernel vs the retained serial reference."""
    row = {}
    for label, table in (("t1", t1), ("t4", t4)):
        if new_name in table:
            row[f"{label}_ms"] = table[new_name]["real_ms"]
            ips = table[new_name]["items_per_second"]
            if ips:
                row[f"{label}_gflops"] = ips / 1e9
    if ref_name in t1:
        row["ref_ms"] = t1[ref_name]["real_ms"]
        ips = t1[ref_name]["items_per_second"]
        if ips:
            row["ref_gflops"] = ips / 1e9
        for label in ("t1", "t4"):
            if f"{label}_ms" in row:
                row[f"speedup_{label}"] = row["ref_ms"] / row[f"{label}_ms"]
    return row

report = {
    "machine": {"nproc": os.cpu_count()},
    "note": (
        "ref_* rows are the retained pre-change serial kernels compiled in "
        "the same binary; t1 rows are the production kernels under "
        "AUTOMC_THREADS=1. Kernels never use the thread pool, so only "
        "parallel_for_overhead has t4 rows (AUTOMC_THREADS=4)."
    ),
    "gemm": {
        f"n{n}": entry(f"BM_MatMul/{n}", f"BM_MatMulRef/{n}")
        for n in (32, 64, 128, 256)
    },
    # Per-sample conv im2col GEMMs from the model zoo: m = out_c,
    # k = in_c * 9, n = out_h * out_w (vgg13 base_width=4 on 8x8 inputs,
    # plus the resnet56 downsample shape).
    "gemm_conv_shapes": {
        f"m{m}_k{k}_n{n}": entry(
            f"BM_GemmConvShape/{m}/{k}/{n}", f"BM_GemmConvShapeRef/{m}/{k}/{n}"
        )
        for (m, k, n) in (
            (4, 27, 64),
            (4, 36, 64),
            (8, 36, 16),
            (8, 72, 16),
            (16, 144, 4),
            (32, 288, 1),
        )
    },
    "matrix_multiply_double": {
        f"n{n}": entry(f"BM_MatrixMultiply/{n}", None) for n in (64, 128)
    },
    "conv_forward": {
        f"c{c}": entry(f"BM_Conv2dForward/{c}", f"BM_Conv2dForwardRef/{c}")
        for c in (8, 16, 32)
    },
    "conv_backward": {
        f"c{c}": entry(f"BM_Conv2dBackward/{c}", f"BM_Conv2dBackwardRef/{c}")
        for c in (8, 16)
    },
    "fmo_predict": {"all": entry("BM_FmoPredict", None)},
    "parallel_for_overhead": {
        f"n{n}": entry(f"BM_ParallelForOverhead/{n}", None)
        for n in (1024, 65536, 1048576)
    },
    "end_to_end_search": {},
}
if e2e_t1 != "null":
    report["end_to_end_search"] = {
        "fig4_search_curves_t1_s": float(e2e_t1),
        "fig4_search_curves_t4_s": float(e2e_t4),
        "speedup_t4_vs_t1": float(e2e_t1) / float(e2e_t4),
    }

# Kernel regression gate: the freshly measured single-thread GEMM
# throughput on the two largest shapes must not fall below 90% of the
# previously recorded baseline. On regression the old baseline is kept
# (the failing numbers are printed, not written) so reruns keep gating
# against the last good recording.
if os.path.exists(out_path):
    with open(out_path) as f:
        old = json.load(f)
    failures = []
    for shape in ("n128", "n256"):
        prev = old.get("gemm", {}).get(shape, {}).get("t1_gflops")
        new = report["gemm"].get(shape, {}).get("t1_gflops")
        if prev and new and new < 0.9 * prev:
            failures.append(
                f"gemm {shape}: t1_gflops {new:.2f} < 0.9 * baseline {prev:.2f}"
            )
    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        print(f"{out_path} left at the previous baseline", file=sys.stderr)
        sys.exit(1)

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
PY

fi  # kernels

if want load; then

# Open-loop load replay: a seeded Poisson schedule of submit/status/list/
# cancel/fetch traffic -- plus chunked fetch_model streams of the
# harness's pre-published 1 MiB multi-chunk artifact, charged at full
# delivery -- fired at the daemon from many non-blocking
# connections, with latency charged from the *scheduled* send time -- no
# coordinated omission, a stalled server racks up timeouts instead of
# thinning the sample stream. Runs once against a single self-hosted
# server and once against a 2-worker fleet over TCP. The SLO gate (per-op
# p99 budget + max error/timeout rate, overridable via
# AUTOMC_LOAD_SLO_P99_MS / AUTOMC_LOAD_SLO_MAX_ERROR_RATE) fails the
# section and keeps the previous BENCH_load.json baseline on violation.
SLO_P99="${AUTOMC_LOAD_SLO_P99_MS:-100}"
SLO_ERR="${AUTOMC_LOAD_SLO_MAX_ERROR_RATE:-0.02}"
# fetch_model weight 3: each fetch streams the pre-published 1 MiB
# artifact with per-chunk CRC+SHA-256 verification (~35 ms of CPU per
# stream on a 1-core box), so overlapping streams dominate every op's
# tail; 3% keeps the gate stable with headroom while still exercising
# the chunked-reply path under load.
LOAD_MIX="status=65,list=10,submit=5,cancel=5,fetch=10,fetch_model=3"
load_rc=0
echo "== load_replay, single server =="
"${BUILD_DIR}/bench/load_replay" \
    --label single --qps 150 --conns 8 --seconds 4 --seed 7 \
    --mix "${LOAD_MIX}" \
    --slo-p99-ms "${SLO_P99}" --slo-max-error-rate "${SLO_ERR}" \
    | tee "${tmpdir}/load_single.json" || load_rc=$?
echo "== load_replay, 2-worker fleet over TCP =="
AUTOMC_SERVE_BIN="${BUILD_DIR}/examples/automc_serve" \
  "${BUILD_DIR}/bench/load_replay" \
    --label fleet2 --fleet 2 --tcp --qps 100 --conns 8 --seconds 4 --seed 7 \
    --mix "${LOAD_MIX}" \
    --slo-p99-ms "${SLO_P99}" --slo-max-error-rate "${SLO_ERR}" \
    | tee "${tmpdir}/load_fleet2.json" || load_rc=$?

python3 - "${tmpdir}/load_single.json" "${tmpdir}/load_fleet2.json" \
    "${load_rc}" BENCH_load.json <<'PY' || failed_gates+=(load)
import json, os, sys

single_path, fleet_path, rc, out_path = sys.argv[1:5]
rc = int(rc)

def load(path, label):
    try:
        with open(path) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        print(f"REGRESSION: {label} run produced no parseable report",
              file=sys.stderr)
        return None

single = load(single_path, "single")
fleet2 = load(fleet_path, "fleet2")

# SLO regression gate: load_replay exits 3 when a budget is violated. On
# failure the old BENCH_load.json is kept (failing numbers are printed,
# not written) so reruns keep gating against the last good recording.
failed = rc != 0 or single is None or fleet2 is None
for doc in (single, fleet2):
    if doc is None:
        continue
    for v in doc.get("slo", {}).get("violations", []):
        print(f"REGRESSION: {doc.get('label', '?')}: {v}", file=sys.stderr)
if failed:
    print(f"{out_path} left at the previous baseline", file=sys.stderr)
    sys.exit(1)

report = {
    "machine": {"nproc": os.cpu_count()},
    "note": (
        "Open-loop AMCS load replay against automc_serve: a seeded "
        "Poisson schedule of submit/status/list/cancel/fetch traffic "
        "plus fetch_model chunked streams of a pre-published 1 MiB "
        "artifact (charged at kModelEnd, i.e. full delivery), "
        "over many non-blocking connections, latency charged from the "
        "scheduled send time (timeouts are recorded, late replies are "
        "discarded -- no coordinated omission). 'single' is one "
        "self-hosted server over a unix socket; 'fleet2' is a 2-worker "
        "coordinator over TCP. On a single-core machine the fleet run "
        "shows dispatch overhead, not speedup. Percentiles are "
        "bucket-interpolated from the log-spaced latency histogram."
    ),
    "slo_budget": {
        "p99_ms": single.get("slo", {}).get("p99_ms_budget"),
        "max_error_rate": single.get("slo", {}).get("max_error_rate"),
    },
    "single": single,
    "fleet2": fleet2,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print("wrote BENCH_load.json")
PY

fi  # load

if [[ ${#failed_gates[@]} -gt 0 ]]; then
  echo "bench.sh: gate failed in: ${failed_gates[*]}" >&2
  exit 1
fi
