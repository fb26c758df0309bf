#!/usr/bin/env bash
# Runs a small forked-worker vabi_shard batch with --verify and requires
# exit 0 and no failed merged slot. --verify alone passes a batch whose
# every job failed (two failed slots compare equal by their codes), so the
# summary line's failed count is what catches a batch that solves nothing.
#
# Usage: tests/cli_shard_verify.sh VABI_SHARD JOURNAL_DIR
set -uo pipefail

[ $# -eq 2 ] || {
  echo "usage: $0 VABI_SHARD JOURNAL_DIR" >&2
  exit 2
}
mkdir -p "$2" || exit 1
out=$("$1" --nets 12 --sinks 10 --seed 7 --workers 3 --journal-dir "$2" \
        --verify 2>&1)
code=$?
echo "$out"
if [ "$code" -ne 0 ]; then
  echo "FAIL: exit $code"
  exit 1
fi
if ! grep -q "jobs merged .*(failed=0 " <<< "$out"; then
  echo "FAIL: a merged slot failed, or no summary line"
  exit 1
fi
echo "ok: every job solved and verified"
