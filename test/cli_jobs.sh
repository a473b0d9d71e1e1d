#!/bin/sh
# The commands that run trials on a pool print the same bytes at any
# --jobs: test, closeness and test-file, each at --jobs 1 and --jobs 2.
#
# Usage: sh cli_jobs.sh path/to/bin/main.exe

main=$1
fail=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A 4-step staircase dataset over [0, 256): block b holds 2000 * (b + 1)
# records spread evenly over its 64 values.
awk 'BEGIN {
  for (b = 0; b < 4; b++)
    for (j = 0; j < 2000 * (b + 1); j++) print b * 64 + (j * 37) % 64
}' >"$tmp/dataset.txt"

# same NAME ARGS...: stdout at --jobs 1 and --jobs 2 must be identical
# and the command must succeed.
same() {
  name=$1
  shift
  for jobs in 1 2; do
    if ! "$main" "$@" --jobs "$jobs" >"$tmp/$name.$jobs" 2>&1; then
      echo "FAIL: '$*' --jobs $jobs exited non-zero"
      fail=1
    fi
  done
  if ! cmp -s "$tmp/$name.1" "$tmp/$name.2"; then
    echo "FAIL: '$*' prints different output at --jobs 1 and --jobs 2:"
    diff "$tmp/$name.1" "$tmp/$name.2"
    fail=1
  fi
}

same test test --family staircase:4 --domain 4096 --trials 6 --oracle counts
same test-stream test --family staircase:4 --domain 4096 --trials 6
same closeness closeness --trials 4
same test-file test-file --file "$tmp/dataset.txt" --trials 4

exit $fail
