#!/bin/sh
# Command-line surface of the six tools:
#   - `--help` prints the usage to stdout, nothing to stderr, and exits 0;
#   - removed flags and malformed values exit 2 with a message naming the
#     option.
# usage: flag_surface_test.sh CLI SOAK GRAPHGEN FIGURES TRACE_CHECK REPORT
set -u
cli=$1 soak=$2
failures=0
out=$(mktemp) err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

for tool in "$@"; do
  "$tool" --help > "$out" 2> "$err"
  rc=$?
  [ "$rc" -eq 0 ] || fail "$tool --help exited $rc"
  grep -q 'usage:' "$out" || fail "$tool --help printed no usage on stdout"
  [ -s "$err" ] && fail "$tool --help wrote to stderr"
done

# expect_two PATTERN TOOL ARGS...: the run exits 2 and stderr matches.
expect_two() {
  pattern=$1
  shift
  "$@" > "$out" 2> "$err"
  rc=$?
  [ "$rc" -eq 2 ] || fail "$* exited $rc, expected 2"
  grep -q -e "$pattern" "$err" || fail "$* stderr lacks '$pattern'"
}

# Removed flags: --progress (use --progress-out -), --profile (use
# --profile-out PATH), soak's --progress-every (use --heartbeat).
expect_two 'unknown argument: --progress' "$cli" --progress 5
expect_two 'unknown argument: --profile' "$cli" --profile
expect_two 'unknown argument: --profile' "$soak" --profile
expect_two 'unknown argument: --progress-every' "$soak" --progress-every 1

# Malformed values and out-of-range thread counts, each rejected before a
# worker pool is sized from them.
expect_two '--n:' "$cli" --n abc
expect_two '--seed:' "$cli" --seed 1x
expect_two '--shard-threads:' "$cli" --n 16 --shard-threads -1
expect_two '--threads:' "$cli" --sweep --sizes 16 --threads 1025
expect_two '--threads:' "$soak" --threads -1
expect_two '--shard-threads:' "$soak" --shard-threads 1025

exit "$failures"
