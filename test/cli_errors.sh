#!/bin/sh
# Malformed --jobs/--seed values must end both CLIs with a usage error
# and a one-line message, never an uncaught exception.
#
# Usage: sh cli_errors.sh path/to/bin/main.exe path/to/bench/main.exe

main=$1
bench=$2
fail=0

# expect STATUS CMD...: CMD exits with STATUS and prints no exception.
expect() {
  want=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, want $want: $err"
    fail=1
  fi
  case $err in
  *xception*)
    echo "FAIL: '$*' leaked an exception: $err"
    fail=1
    ;;
  esac
}

# bench/main.exe: usage errors exit 2, as an unknown --oracle does.
expect 2 "$bench" --jobs 0 e1
expect 2 "$bench" --jobs -1 e1
expect 2 "$bench" --jobs x e1
expect 2 "$bench" --seed x e1
expect 2 "$bench" --oracle bad e1

# bin/main.exe: cmdliner's command-line error status is 124; 0 still
# means all recommended cores.
expect 124 "$main" test --jobs=-3
expect 124 "$main" test --jobs x
expect 0 "$main" test --jobs=0 --domain 64 -k 1 --trials 1 --oracle counts

exit $fail
