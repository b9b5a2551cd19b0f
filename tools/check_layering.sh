#!/usr/bin/env bash
# Include-layering guard (registered as ctest `layering`):
#
#   1. files under src/match/ include only match/ and support/ headers:
#      the matcher is the bottom of the scan stack, and the engine, the
#      channels and the services build on it, never the reverse;
#   2. no file under src/, tools/, examples/ or bench/ includes a
#      testing/ header: the test oracles (tests/testing/) stay out of
#      product code.
#
# Only quoted project includes are checked; system headers are free.
# Usage: check_layering.sh <repo-source-dir>
set -euo pipefail

src="${1:?usage: check_layering.sh <repo-source-dir>}"
cd "$src"
status=0

if bad="$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]+"' src/match |
          grep -vE '#[[:space:]]*include[[:space:]]+"(match|support)/')"; then
  echo "layering: src/match/ includes outside match/ and support/:" >&2
  echo "$bad" >&2
  status=1
fi

if bad="$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]+"testing/' \
            src tools examples bench)"; then
  echo "layering: product code includes a tests/testing/ oracle:" >&2
  echo "$bad" >&2
  status=1
fi

exit "$status"
