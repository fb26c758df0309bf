#!/usr/bin/env bash
# Runs one command and requires a given exit code: the typed solve errors of
# vabi_cli each map to their own code (see the header of vabi_cli.cpp).
#
# Usage: tests/cli_exit_code.sh WANT COMMAND [ARGS...]
set -uo pipefail

[ $# -ge 2 ] || {
  echo "usage: $0 WANT COMMAND [ARGS...]" >&2
  exit 2
}
want=$1
shift
"$@" > /dev/null 2>&1
code=$?
if [ "$code" -eq "$want" ]; then
  echo "ok: exit $want from $*"
  exit 0
fi
echo "FAIL: exit $code (want $want) from $*"
exit 1
