#!/usr/bin/env bash
# Runs the clustering and streaming-scan benches, emitting google-benchmark
# JSON:
#   BENCH_cluster.json  per-bench real/cpu time plus the DbscanStats
#                       counters (dp, pruned_length/histogram/sketch,
#                       graph_seconds)
#   BENCH_stream.json   the unified engine's steady-state scan
#                       (BM_EngineScanManySignatures, warm Scratch), the
#                       chunked deployment-channel scan
#                       (BM_StreamingScan/<chunk> vs BM_StreamingScanOneShot),
#                       artifact load vs in-memory compile
#                       (BM_BundleColdStartLoad vs BM_BundleColdStartBuild)
#                       and prefilter derivation alone (BM_PrefilterBuild)
#   BENCH_scan.json     single-stream scan throughput: the Teddy SIMD
#                       literal first stage in isolation
#                       (BM_TeddyPrefilter, BM_TeddyPrefilterShortLiterals)
#                       and the whole-database scan end to end through the
#                       engine (BM_EngineScanManySignatures, the trajectory
#                       row); also the release-motion rows gated by
#                       --compare: artifact cold start
#                       (BM_BundleColdStartLoad) and KZDELTA incremental
#                       apply vs full artifact reload at serving scale
#                       (BM_DeployDeltaApply vs BM_DeployFullReload)
#   BENCH_serve.json    the async scan service under mixed one-shot/stream
#                       load (bench_serve: serve_mixed/clients:{2,8} with
#                       p50/p99/p999 latency and requests-per-second, a
#                       soak with a mid-run lint-gated hot swap, and a
#                       typed-shed overload phase)
#
# Usage: bench/run_bench.sh [build-dir] [cluster-out.json] [stream-out.json]
#                           [scan-out.json] [serve-out.json]
#        bench/run_bench.sh --compare <baseline.json> [candidate.json]
#                           [tolerance]
#
# The headline comparisons: BM_ClusterPairwise vs BM_ClusterPairwiseScalar
# items_per_second (unordered pairs resolved per second),
# BM_StreamingScan bytes_per_second against the one-shot pass (a stream
# runs that same pass at finish, so the gap is the cost of chunked
# intake: appending to the scratch's text buffer), and
# BM_DeployDeltaApply against BM_DeployFullReload.
#
# --compare checks the scan series for regressions against a baseline JSON
# (e.g. the checked-in BENCH_scan.json or BENCH_serve.json): per shared
# benchmark row, the candidate's real_time may exceed the baseline's by at
# most `tolerance` (default 0.30 = +30%, benchmarks are noisy). When
# candidate.json is omitted, the scan series is run fresh from <build-dir
# or ./build> — and if bench_serve is built there, its quick-mode rows
# (p99 latency as real_time) are merged into the candidate so a serve
# baseline gates serving latency alongside scan throughput.
# Exits 1 on any regression, 2 when the files share no rows.
set -euo pipefail

SCAN_FILTER='BM_TeddyPrefilter|BM_EngineScanManySignatures|BM_BundleColdStartLoad|BM_Deploy'
# Every JSON records the CPUs this process may run on (google-benchmark's
# own num_cpus counts the host's), so scaling rows read against the right
# core count.
CONTEXT="--benchmark_context=nproc=$(nproc)"

if [[ "${1:-}" == "--compare" ]]; then
  BASELINE="${2:?usage: run_bench.sh --compare <baseline.json> [candidate.json] [tolerance]}"
  CANDIDATE="${3:-}"
  TOL="${4:-0.30}"
  if [[ -z "$CANDIDATE" ]]; then
    BUILD="${BENCH_BUILD:-build}"
    if [[ ! -x "$BUILD/bench_micro" ]]; then
      echo "error: $BUILD/bench_micro not found (set BENCH_BUILD)." >&2
      exit 1
    fi
    CANDIDATE="$(mktemp "${TMPDIR:-/tmp}/bench_scan.XXXXXX.json")"
    "$BUILD/bench_micro" "$CONTEXT" --benchmark_filter="$SCAN_FILTER" \
      --benchmark_out="$CANDIDATE" --benchmark_out_format=json
    if [[ -x "$BUILD/bench_serve" ]]; then
      SERVE_CANDIDATE="$(mktemp "${TMPDIR:-/tmp}/bench_serve.XXXXXX.json")"
      "$BUILD/bench_serve" --quick "$SERVE_CANDIDATE"
      python3 - "$CANDIDATE" "$SERVE_CANDIDATE" <<'EOF'
import json
import sys

# Merge the serve rows into the scan candidate: one candidate file, one
# compare pass, rows matched by name as usual.
with open(sys.argv[1]) as f:
    scan = json.load(f)
with open(sys.argv[2]) as f:
    serve = json.load(f)
scan.setdefault("benchmarks", []).extend(serve.get("benchmarks", []))
with open(sys.argv[1], "w") as f:
    json.dump(scan, f, indent=1)
EOF
      rm -f "$SERVE_CANDIDATE"
    fi
  fi
  python3 - "$BASELINE" "$CANDIDATE" "$TOL" <<'EOF'
import json
import sys

base_path, cand_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])


def rows(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b
        for b in data.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }


base, cand = rows(base_path), rows(cand_path)
shared = sorted(set(base) & set(cand))
if not shared:
    print(f"error: no shared benchmark rows between {base_path} and {cand_path}")
    sys.exit(2)
bad = []
print(f"{'benchmark':55s} {'baseline':>12s} {'candidate':>12s} {'ratio':>7s}")
for name in shared:
    b, c = base[name]["real_time"], cand[name]["real_time"]
    ratio = c / b if b else float("inf")
    flag = ""
    if ratio > 1.0 + tol:
        bad.append(name)
        flag = "  REGRESSION"
    print(f"{name:55s} {b:12.0f} {c:12.0f} {ratio:7.2f}{flag}")
print(f"{len(shared)} rows compared, tolerance +{tol:.0%}")
if bad:
    print("regressions: " + ", ".join(bad))
    sys.exit(1)
EOF
  exit $?
fi

BUILD="${1:-build}"
OUT="${2:-BENCH_cluster.json}"
STREAM_OUT="${3:-BENCH_stream.json}"
SCAN_OUT="${4:-BENCH_scan.json}"
SERVE_OUT="${5:-BENCH_serve.json}"

if [[ ! -x "$BUILD/bench_micro" ]]; then
  echo "error: $BUILD/bench_micro not found or not executable." >&2
  echo "Configure with google-benchmark installed: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

"$BUILD/bench_micro" "$CONTEXT" \
  --benchmark_filter='BM_ClusterPairwise|BM_DbscanEndToEnd|BM_TokenDbscanDay|BM_EditDistance' \
  --benchmark_out="$OUT" --benchmark_out_format=json

echo "wrote $OUT"

"$BUILD/bench_micro" "$CONTEXT" \
  --benchmark_filter='BM_EngineScan|BM_StreamingScan|BM_BundleColdStart|BM_PrefilterBuild' \
  --benchmark_out="$STREAM_OUT" --benchmark_out_format=json

echo "wrote $STREAM_OUT"

"$BUILD/bench_micro" "$CONTEXT" \
  --benchmark_filter="$SCAN_FILTER" \
  --benchmark_out="$SCAN_OUT" --benchmark_out_format=json

echo "wrote $SCAN_OUT"

if [[ -x "$BUILD/bench_serve" ]]; then
  "$BUILD/bench_serve" "$SERVE_OUT"
  echo "wrote $SERVE_OUT"
else
  echo "note: $BUILD/bench_serve not built, skipping $SERVE_OUT" >&2
fi
