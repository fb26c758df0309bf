#!/usr/bin/env bash
# Runs vabi_cli and eco_fuzz with malformed numeric options and requires the
# documented usage error (exit 1) from every run: a number that does not
# parse as a whole must neither abort the process nor be read as a prefix.
#
# Usage: tests/cli_malformed_numbers.sh VABI_CLI ECO_FUZZ
set -uo pipefail

[ $# -eq 2 ] || {
  echo "usage: $0 VABI_CLI ECO_FUZZ" >&2
  exit 2
}
cli=$1
fuzz=$2
status=0

expect_usage_error() {
  "$@" > /dev/null 2>&1
  local code=$?
  if [ "$code" -eq 1 ]; then
    echo "ok: exit 1 from $*"
  else
    echo "FAIL: exit $code (want 1) from $*"
    status=1
  fi
}

expect_usage_error "$cli" --generate r1
expect_usage_error "$cli" --generate 10 --pbar x
expect_usage_error "$cli" --generate 10 --wire-widths 0.7,abc
expect_usage_error "$cli" --generate 10x
expect_usage_error "$fuzz" --trees x
exit $status
