#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
#
# Usage:
#   scripts/ci.sh                      # plain Release build + ctest, run at
#                                      # AUTOMC_THREADS=1 and AUTOMC_THREADS=4
#   AUTOMC_SANITIZE=address,undefined scripts/ci.sh
#   AUTOMC_SANITIZE=thread scripts/ci.sh
#                                      # additional sanitizer build + ctest
#
# Exits non-zero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "$(nproc)"
  # The whole suite runs four ways: {SIMD kernels on, forced scalar} x
  # {serial, 4-lane pool}. Results must be identical across all of them
  # (the determinism contract in DESIGN.md plus the microkernel contract in
  # src/tensor/simd.h); the extra passes also shake out races under
  # sanitizers and keep the scalar fallback permanently exercised.
  for simd in 1 0; do
    for threads in 1 4; do
      echo "-- ctest, AUTOMC_SIMD=${simd} AUTOMC_THREADS=${threads} --"
      AUTOMC_SIMD="${simd}" AUTOMC_THREADS="${threads}" \
        ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
    done
  done
}

echo "== doc check =="
# Dead intra-repo markdown links/anchors, stale backticked repo paths,
# undocumented AUTOMC_* knobs and knob rows nothing reads
# (docs/configuration.md is the authoritative table) fail the build.
python3 scripts/check_docs.py

echo "== tier-1: release build + tests =="
run_suite build

echo "== compile-out build =="
# -DAUTOMC_DISABLE_METRICS=ON compiles every AUTOMC_METRIC_* and
# AUTOMC_SCOPED_TIMER site out. Build every target to prove the macros still
# compile there, never evaluate their arguments and leave no variable unused
# (a value computed only to be recorded). No tests run: nine test binaries
# assert counter values that this build removes.
cmake -B build-nometrics -S . -DAUTOMC_DISABLE_METRICS=ON \
  -DCMAKE_CXX_FLAGS="-Werror=unused-variable -Werror=unused-but-set-variable" \
  >/dev/null
cmake --build build-nometrics -j "$(nproc)"

echo "== crash-resume smoke =="
# Kill a checkpointing search with SIGKILL mid-run, resume it, and require
# the final SearchOutcome to be byte-identical to an uninterrupted reference
# run (the persistence guarantee in DESIGN.md "Persistence & resume").
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
cli=build/examples/automc_cli
smoke_args=(--searcher evolution --budget 16 --pretrain 1 --family vgg
            --depth 13 --seed 7)

"${cli}" "${smoke_args[@]}" --outcome "${smoke_dir}/ref.outcome"

AUTOMC_CHECKPOINT_EVERY=1 "${cli}" "${smoke_args[@]}" \
  --checkpoint "${smoke_dir}" --store "${smoke_dir}/store.bin" \
  --outcome "${smoke_dir}/victim.outcome" &
victim=$!
# Wait for the first checkpoint to land, then kill the search outright.
while kill -0 "${victim}" 2>/dev/null \
    && [[ ! -f "${smoke_dir}/checkpoint.bin" ]]; do
  sleep 0.05
done
kill -KILL "${victim}" 2>/dev/null || true
wait "${victim}" 2>/dev/null || true

if [[ -f "${smoke_dir}/victim.outcome" ]]; then
  # The victim outran the kill: its (uninterrupted) outcome must still match.
  diff "${smoke_dir}/ref.outcome" "${smoke_dir}/victim.outcome"
  echo "crash-resume smoke: victim finished before the kill; outcome matches"
else
  AUTOMC_CHECKPOINT_EVERY=1 "${cli}" "${smoke_args[@]}" \
    --resume "${smoke_dir}" --store "${smoke_dir}/store.bin" \
    --outcome "${smoke_dir}/resumed.outcome"
  diff "${smoke_dir}/ref.outcome" "${smoke_dir}/resumed.outcome"
  echo "crash-resume smoke: resumed outcome is byte-identical"
fi

echo "== knowledge explorer smoke =="
# The one tool that prints the geometry of the learned strategy embeddings
# (Algorithm 1's knowledge-graph term): it must learn them and print it.
explorer_out="$(build/examples/knowledge_explorer)"
grep -q 'embedding geometry:' <<<"${explorer_out}"
echo "knowledge explorer smoke: embeddings learned, geometry printed"

echo "== server smoke =="
# Boot the automc_serve daemon, run the same search once directly and once
# through the socket, require byte-identical outcomes, then SIGTERM the
# daemon and require a clean drain (exit 0) plus a metrics dump.
serve_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}" "${serve_dir}"' EXIT
AUTOMC_METRICS_OUT="${serve_dir}/metrics.json" \
  build/examples/automc_serve --socket "${serve_dir}/automc.sock" \
  --workdir "${serve_dir}/jobs" >"${serve_dir}/serve.log" 2>&1 &
srv=$!
for _ in $(seq 1 100); do
  [[ -S "${serve_dir}/automc.sock" ]] && break
  sleep 0.05
done
[[ -S "${serve_dir}/automc.sock" ]]

serve_args=(--searcher random --budget 4 --pretrain 1 --family vgg
            --depth 13 --dataset tiny --seed 11)
"${cli}" "${serve_args[@]}" --outcome "${serve_dir}/direct.outcome"

submit_line="$("${cli}" --socket "${serve_dir}/automc.sock" \
  "${serve_args[@]}" --serve-submit)"
echo "${submit_line}"
job_id="${submit_line##* }"
"${cli}" --socket "${serve_dir}/automc.sock" --serve-result "${job_id}" \
  --serve-wait --outcome "${serve_dir}/served.outcome" >/dev/null

diff "${serve_dir}/direct.outcome" "${serve_dir}/served.outcome"
echo "server smoke: served outcome is byte-identical"

kill -TERM "${srv}"
wait "${srv}"
[[ -f "${serve_dir}/metrics.json" ]]
echo "server smoke: daemon drained cleanly and dumped metrics"

echo "== fleet smoke =="
# Boot a 2-worker coordinator fleet over TCP, submit two jobs, SIGKILL the
# worker that owns the long one mid-run, and require every acknowledged
# job to finish with an outcome byte-identical to a direct run — the
# fleet-wide determinism contract (docs/server.md "Coordinator/worker
# sharding").
fleet_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}" "${serve_dir}" "${fleet_dir}"' EXIT
build/examples/automc_serve --socket "${fleet_dir}/fleet.sock" \
  --tcp tcp:127.0.0.1:0 --fleet 2 --workdir "${fleet_dir}/jobs" \
  >"${fleet_dir}/serve.log" 2>&1 &
fsrv=$!
for _ in $(seq 1 200); do
  grep -qo 'tcp:127\.0\.0\.1:[0-9]*' "${fleet_dir}/serve.log" && break
  sleep 0.05
done
tcp_addr="$(grep -o 'tcp:127\.0\.0\.1:[0-9]*' "${fleet_dir}/serve.log" | head -1)"
[[ -n "${tcp_addr}" ]]

fleet_args_a=(--searcher random --budget 200 --pretrain 1 --family vgg
              --depth 13 --dataset tiny --seed 19)
fleet_args_b=(--searcher random --budget 4 --pretrain 1 --family vgg
              --depth 13 --dataset tiny --seed 23)
"${cli}" "${fleet_args_a[@]}" --outcome "${fleet_dir}/direct_a.outcome"
"${cli}" "${fleet_args_b[@]}" --outcome "${fleet_dir}/direct_b.outcome"

job_a="$("${cli}" --socket "${tcp_addr}" "${fleet_args_a[@]}" --serve-submit)"
job_a="${job_a##* }"
job_b="$("${cli}" --socket "${tcp_addr}" "${fleet_args_b[@]}" --serve-submit)"
job_b="${job_b##* }"

# Job ids shard deterministically: (id-1) % 2, so job 1 lives in worker-1.
# Wait until it is RUNNING, then SIGKILL that worker process outright.
for _ in $(seq 1 600); do
  "${cli}" --socket "${tcp_addr}" --serve-status "${job_a}" \
    | grep -q RUNNING && break
  sleep 0.05
done
victim="$(pgrep -f -- "--workdir=${fleet_dir}/jobs/worker-1" | head -1)"
[[ -n "${victim}" ]]
kill -KILL "${victim}"
echo "fleet smoke: SIGKILLed worker-1 (pid ${victim}) mid-job"

"${cli}" --socket "${tcp_addr}" --serve-result "${job_a}" --serve-wait \
  --outcome "${fleet_dir}/served_a.outcome" >/dev/null
"${cli}" --socket "${tcp_addr}" --serve-result "${job_b}" --serve-wait \
  --outcome "${fleet_dir}/served_b.outcome" >/dev/null
diff "${fleet_dir}/direct_a.outcome" "${fleet_dir}/served_a.outcome"
diff "${fleet_dir}/direct_b.outcome" "${fleet_dir}/served_b.outcome"
echo "fleet smoke: both sharded outcomes byte-identical (one across a kill)"

kill -TERM "${fsrv}"
wait "${fsrv}"
echo "fleet smoke: coordinator drained cleanly"

echo "== artifact smoke =="
# The determinism contract extended to model bytes, across process and
# shard boundaries: submit a job to a 2-worker TCP fleet, fetch its
# published model through the coordinator front door, and require the
# bytes to equal a direct `--export-model` of the same spec. Then flip a
# single byte inside the pack file on disk and require the next fetch to
# fail with a typed DataLoss — a corrupt chunk is quarantined, never
# silently served (docs/artifacts.md "Corruption handling").
art_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}" "${serve_dir}" "${fleet_dir}" "${art_dir}"' EXIT
build/examples/automc_serve --socket "${art_dir}/fleet.sock" \
  --tcp tcp:127.0.0.1:0 --fleet 2 --workdir "${art_dir}/jobs" \
  >"${art_dir}/serve.log" 2>&1 &
asrv=$!
for _ in $(seq 1 200); do
  grep -qo 'tcp:127\.0\.0\.1:[0-9]*' "${art_dir}/serve.log" && break
  sleep 0.05
done
art_addr="$(grep -o 'tcp:127\.0\.0\.1:[0-9]*' "${art_dir}/serve.log" | head -1)"
[[ -n "${art_addr}" ]]

art_args=(--searcher random --budget 4 --pretrain 1 --family vgg
          --depth 13 --dataset tiny --seed 29)
"${cli}" "${art_args[@]}" --export-model "${art_dir}/direct.model" >/dev/null

art_job="$("${cli}" --socket "${art_addr}" "${art_args[@]}" --serve-submit)"
art_job="${art_job##* }"
for _ in $(seq 1 600); do
  "${cli}" --socket "${art_addr}" --serve-status "${art_job}" \
    | grep -q DONE && break
  sleep 0.05
done

"${cli}" --socket "${art_addr}" --serve-fetch-model "job-${art_job}" \
  --out "${art_dir}/fetched.model"
cmp "${art_dir}/direct.model" "${art_dir}/fetched.model"
"${cli}" --socket "${art_addr}" --serve-list-artifacts \
  | grep -q "job-${art_job}"
echo "artifact smoke: fleet-fetched model byte-identical to --export-model"

python3 - "${art_dir}/jobs/artifacts" <<'PY'
import glob, sys
packs = sorted(glob.glob(sys.argv[1] + "/packs/pack-*.bin"))
assert packs, "no pack files under " + sys.argv[1]
with open(packs[0], "r+b") as f:
    f.seek(100)  # inside the first chunk's payload
    b = f.read(1)
    f.seek(100)
    f.write(bytes([b[0] ^ 0xFF]))
print("artifact smoke: flipped one byte in", packs[0])
PY
rc=0
"${cli}" --socket "${art_addr}" --serve-fetch-model "job-${art_job}" \
  --out "${art_dir}/corrupt.model" 2>"${art_dir}/fetch_err.log" || rc=$?
[[ "${rc}" -ne 0 ]]
grep -q DataLoss "${art_dir}/fetch_err.log"
[[ ! -f "${art_dir}/corrupt.model" ]]
echo "artifact smoke: corrupted chunk refused with DataLoss (exit ${rc})"

kill -TERM "${asrv}"
wait "${asrv}"
echo "artifact smoke: coordinator drained cleanly"

echo "== load smoke =="
# Short open-loop replay against a self-hosted 2-worker fleet over TCP:
# the SLO gate (generous budget) must pass and the report must be
# well-formed JSON. Then the same replay with AUTOMC_SERVER_FAULT_DELAY_MS
# stalling every dispatch must trip the gate — load_replay signals an SLO
# violation with exit code 3, so the gate is proven able to fail.
load_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}" "${serve_dir}" "${fleet_dir}" "${art_dir}" \
  "${load_dir}"' EXIT
load_replay=build/bench/load_replay
AUTOMC_SERVE_BIN=build/examples/automc_serve "${load_replay}" \
  --fleet 2 --tcp --qps 80 --conns 4 --seconds 2 --seed 5 \
  --slo-p99-ms 500 --slo-max-error-rate 0.05 >"${load_dir}/load.json"
python3 - "${load_dir}/load.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["slo"]["pass"] is True, doc["slo"]
assert doc["report"]["totals"]["sent"] > 0, doc["report"]["totals"]
for op, row in doc["report"]["ops"].items():
    assert row["sent"] >= 0 and row["p99_ms"] >= 0, (op, row)
print("load smoke: SLO gate passed, report well-formed "
      f"({doc['report']['totals']['sent']} ops)")
PY

rc=0
AUTOMC_SERVE_BIN=build/examples/automc_serve \
  AUTOMC_SERVER_FAULT_DELAY_MS=50 "${load_replay}" \
  --fleet 2 --tcp --qps 40 --conns 4 --seconds 2 --seed 5 \
  --slo-p99-ms 10 >"${load_dir}/load_fault.json" || rc=$?
[[ "${rc}" -eq 3 ]]
echo "load smoke: fault-injected run tripped the SLO gate (exit ${rc})"

echo "== perfbench self-tests =="
# The benchmark's own tests, against this tree: they build its harness (as
# perfbench/run.py does) into build-perfbench/, check its metric names and
# gate rules, and require the traced recomposition of one search to stay
# byte-identical to core::RunSearch.
CARGO_TARGET_DIR=build-perfbench \
  python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "== COW sanitizer stage =="
# The copy-on-write tensor contract is concurrency-sensitive: distinct
# aliases of one buffer are read while another alias materializes. Prove
# the absence of data races with a ThreadSanitizer build of the COW
# invariant suite plus the batched evaluator (whose speculation phase
# shares model snapshots across the pool) and the shared experience tier
# (readers mmap while a publisher appends + renames), and the artifact
# registry (concurrent publishers fill packs under flock while lock-free
# readers fetch through the mmap'd index), and the durable-file layer
# (FileLock, same-path writers, the crash harness), and the metrics
# registry (pool threads record through macro sites while Reset() zeroes),
# and whole AutoMC runs (core_test, determinism_test), where pretraining
# and embedding learning run as two training loops on the pool at once,
# each with its own thread-local conv and GEMM scratch,
# and the pool itself (thread_pool_test: its ticket queue, nesting and
# exception paths),
# then shake out addressability bugs in the buffer-sharing paths, the
# direct conv kernels' padded lane buffers and partly filled last lane
# block, the raw-pointer TransR pair step, the metric
# references kept across Reset(), the model decoder, the experience store,
# the durable-file parsers, the seeded decoder fuzz (which, under ASan,
# also fails any allocation over 64 MiB) and the AVX2 microkernels' packing
# and tails (simd_kernel_test, whose timing case skips there) with an
# ASan+UBSan pass. Both run at AUTOMC_THREADS=1 and 4 like the main suite.
cmake -B build-tsan -S . -DAUTOMC_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$(nproc)" --target cow_tensor_test batch_eval_test \
  experience_index_test artifact_test durable_test metrics_test core_test \
  determinism_test thread_pool_test
for threads in 1 4; do
  echo "-- tsan ctest, AUTOMC_THREADS=${threads} --"
  AUTOMC_THREADS="${threads}" ctest --test-dir build-tsan \
    -R 'cow_tensor_test|batch_eval_test|experience_index_test|artifact_test|durable_test|metrics_test|core_test|determinism_test|thread_pool_test' \
    --output-on-failure
done

cmake -B build-asan -S . -DAUTOMC_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$(nproc)" --target tensor_test simd_kernel_test \
  cow_tensor_test nn_model_test kg_test experience_index_test artifact_test \
  durable_test metrics_test serialize_test store_test decoder_fuzz_test
for threads in 1 4; do
  echo "-- asan ctest, AUTOMC_THREADS=${threads} --"
  AUTOMC_THREADS="${threads}" ctest --test-dir build-asan \
    -R 'tensor_test|simd_kernel_test|cow_tensor_test|nn_model_test|kg_test|experience_index_test|artifact_test|durable_test|metrics_test|serialize_test|store_test|decoder_fuzz_test' \
    --output-on-failure
done

if [[ -n "${AUTOMC_SANITIZE:-}" ]]; then
  echo "== sanitizer pass (${AUTOMC_SANITIZE}) =="
  run_suite "build-san" "-DAUTOMC_SANITIZE=${AUTOMC_SANITIZE}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

echo "CI OK"
