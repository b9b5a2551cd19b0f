#!/usr/bin/env bash
# End-to-end smoke for `kizzle serve` (registered as ctest cli_serve_smoke):
#
#   1. compile a demo artifact and start the scan service on it with
#      --watch, driven by the built-in load generator (mixed one-shot and
#      chunked-stream traffic);
#   2. mid-run, compile a different artifact and atomically rename it over
#      the watched path — the release motion the watcher is for;
#   3. assert the run drained and shut down cleanly (exit 0), completed a
#      nonzero number of scans with zero failed requests, and performed at
#      least one lint-gated hot swap.
#
# Usage: serve_smoke.sh <path-to-kizzle_cli>
set -euo pipefail

cli="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$cli" demo 1 "$tmp/live.kpf" > /dev/null 2> /dev/null
"$cli" demo 2 "$tmp/next.kpf" > /dev/null 2> /dev/null

"$cli" serve --watch "$tmp/live.kpf" --duration-ms 4000 --clients 2 \
  --poll-ms 100 "$tmp/live.kpf" 2> "$tmp/serve.log" &
serve_pid=$!

# Wait until the watcher has primed on the initial artifact (serve prints
# a readiness line; startup builds its fixture first, which takes seconds
# under sanitizers), then ship the release.
for _ in $(seq 600); do
  grep -q '^\[serve\] watch-ready primed=1' "$tmp/serve.log" && break
  kill -0 "$serve_pid" 2> /dev/null || break
  sleep 0.1
done
if ! grep -q '^\[serve\] watch-ready primed=1' "$tmp/serve.log"; then
  echo "serve smoke: watcher never reported ready:" >&2
  cat "$tmp/serve.log" >&2
  kill "$serve_pid" 2> /dev/null || true
  exit 1
fi
mv "$tmp/next.kpf" "$tmp/live.kpf"

if ! wait "$serve_pid"; then
  echo "serve exited nonzero:" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi

check() {
  if ! grep -qE "$1" "$tmp/serve.log"; then
    echo "serve smoke: missing '$1' in output:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
  fi
}

check '\[serve\] completed=[1-9][0-9]* '  # nonzero completed scans
check ' failed=0 '                        # clean drain: nothing dropped
check ' shed=0 '                          # closed-loop load is never shed
check '\[serve\] watch-swaps=[1-9]'       # the hot swap actually happened
check ' swaps-rejected=0 '                # the demo artifact lints clean

echo "serve smoke: ok"
