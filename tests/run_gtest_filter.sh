#!/usr/bin/env bash
# Runs a gtest binary under --gtest_filter, but first requires every
# ':'-separated positive pattern of the filter to select at least one test:
# a renamed suite must fail the step, not turn it into a silent no-op.
#
# Usage: tests/run_gtest_filter.sh BINARY FILTER [extra gtest args...]
set -euo pipefail

[ $# -ge 2 ] || {
  echo "usage: $0 BINARY FILTER [gtest args...]" >&2
  exit 2
}
bin=$1
filter=$2
shift 2

# Patterns after a '-' exclude tests; only the positive ones must match.
IFS=':' read -ra patterns <<< "${filter%%-*}"
for pattern in "${patterns[@]}"; do
  [ -n "$pattern" ] || continue
  count=$("$bin" --gtest_filter="$pattern" --gtest_list_tests |
            grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "run_gtest_filter: '$pattern' selects no test in $bin" >&2
    exit 1
  fi
  echo "run_gtest_filter: '$pattern' selects $count tests"
done
exec "$bin" --gtest_filter="$filter" "$@"
