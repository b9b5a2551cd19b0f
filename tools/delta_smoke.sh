#!/usr/bin/env bash
# End-to-end smoke for the incremental-deploy path (ctest cli_delta_smoke):
#
#   1. run the demo pipeline for day 1 and for days 1-2 — the day-1
#      signature DB is a byte prefix of the two-day DB (append-only issue
#      order), which is exactly the lineage `pack --delta` requires;
#   2. pack the day-1 set as the serving bundle and diff the two DBs into
#      a KZDELTA delta artifact; corrupt one payload byte of a copy;
#   3. start `kizzle serve --watch` on the day-1 bundle under the built-in
#      load generator, then atomically rename the *corrupted* delta over
#      the watched path — it must be refused (checksum) with the serving
#      epoch untouched — and then the good delta, which must hot-apply;
#   4. assert a clean drain (exit 0, nonzero completed, zero failed/shed),
#      at least one rejected and at least one accepted watch deploy.
#
# Usage: delta_smoke.sh <path-to-kizzle_cli>
set -euo pipefail

cli="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$cli" demo 1 > "$tmp/day1.db" 2> /dev/null
"$cli" demo 2 > "$tmp/day2.db" 2> /dev/null

# The append-only lineage the delta leans on: day1 is a prefix of day2.
if ! cmp -s "$tmp/day1.db" <(head -c "$(wc -c < "$tmp/day1.db")" "$tmp/day2.db"); then
  echo "delta smoke: day-1 DB is not a prefix of the day-2 DB" >&2
  exit 1
fi

"$cli" pack "$tmp/day1.db" "$tmp/live.kpf" > /dev/null 2> /dev/null
"$cli" pack --delta "$tmp/day1.db" "$tmp/day2.db" "$tmp/good.kzd" 2> /dev/null

# One flipped payload byte: the delta checksum must catch it at the gate.
cp "$tmp/good.kzd" "$tmp/bad.kzd"
printf '\xff' | dd of="$tmp/bad.kzd" bs=1 seek=40 count=1 conv=notrunc 2> /dev/null

"$cli" serve --watch "$tmp/live.kpf" --duration-ms 5000 --clients 2 \
  --poll-ms 100 "$tmp/live.kpf" 2> "$tmp/serve.log" &
serve_pid=$!

# Wait until the watcher has primed on the serving bundle (serve prints a
# readiness line; startup builds its fixture first, which takes seconds
# under sanitizers), then ship the corrupted delta first (must be refused,
# service keeps scanning), then the real one.
for _ in $(seq 600); do
  grep -q '^\[serve\] watch-ready primed=1' "$tmp/serve.log" && break
  kill -0 "$serve_pid" 2> /dev/null || break
  sleep 0.1
done
if ! grep -q '^\[serve\] watch-ready primed=1' "$tmp/serve.log"; then
  echo "delta smoke: watcher never reported ready:" >&2
  cat "$tmp/serve.log" >&2
  kill "$serve_pid" 2> /dev/null || true
  exit 1
fi
mv "$tmp/bad.kzd" "$tmp/live.kpf"
sleep 1.5
mv "$tmp/good.kzd" "$tmp/live.kpf"

if ! wait "$serve_pid"; then
  echo "serve exited nonzero:" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi

check() {
  if ! grep -qE "$1" "$tmp/serve.log"; then
    echo "delta smoke: missing '$1' in output:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
  fi
}

check '\[serve\] completed=[1-9][0-9]* '   # scans kept flowing throughout
check ' failed=0 '                         # no dropped scans across swaps
check ' shed=0 '
check '\[serve\] watch-swaps=[1-9]'        # the good delta hot-applied
check ' watch-rejected=[1-9]'              # the corrupted delta was refused

echo "delta smoke: ok"
