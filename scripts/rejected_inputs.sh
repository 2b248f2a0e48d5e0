#!/usr/bin/env bash
# Inputs the jetty-repro CLI must refuse: each must exit 1 with a message on
# stderr and nothing on stdout. Run it against the release binary, whose
# `panic = "abort"` profile turns an unvalidated input into exit 134 (test
# builds unwind, so there the same defect shows up as exit 2).
#
#   scripts/rejected_inputs.sh [PATH_TO_JETTY_REPRO]
set -uo pipefail
cd "$(dirname "$0")/.."
BIN=${1:-target/release/jetty-repro}
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT
failed=0
while IFS= read -r args; do
  # shellcheck disable=SC2086 # the argument list is split on spaces on purpose
  out=$(timeout 60 "$BIN" $args 2>"$ERR")
  code=$?
  if [ "$code" -ne 1 ] || [ ! -s "$ERR" ] || [ -n "$out" ]; then
    echo "FAIL: jetty-repro $args: exit $code (want 1 with a message, no output)"
    cat "$ERR"
    failed=1
  else
    echo "ok: jetty-repro $args -> $(head -n 1 "$ERR")"
  fi
done <<'LIST'
sweep --scale 0.002 --axis filter=vej-32x4-128
sweep --scale 0.002 --axis filter=ej-1048576x1048576
sweep --scale 0.002 --axis filter=ij-30x100000x1
sweep --scale 0.002 --axis filter=hj-ij10x4x7-vej32x4-128
sweep --scale 0.002 --axis scale=nan
sweep --scale 0.002 --axis cpus=3
table2 --scale nan
table2 --scale inf
table2 --scale 0.002 --cpus 3
table2 --scale 0.002 --threads 0
table2 --scale 0.002 --deadline-ms 0
table2 --scale 0.002 --shards 2
LIST
exit "$failed"
