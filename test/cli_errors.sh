#!/bin/sh
# Malformed or out-of-range arguments must end the CLIs with a usage
# error and a one-line message, never an uncaught exception; histolint
# must not pass a scan that found nothing to check.
#
# Usage: sh cli_errors.sh path/to/bin/main.exe path/to/bench/main.exe \
#          path/to/bin/histolint.exe

main=$1
bench=$2
histolint=$3
fail=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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

# bench/main.exe: usage errors exit 2 before any experiment runs: a bad
# value, an unknown experiment, an unknown option such as --oracle.
expect 2 "$bench" --jobs 0 e1
expect 2 "$bench" --jobs -1 e1
expect 2 "$bench" --jobs x e1
expect 2 "$bench" --jobs 129 e1
expect 2 "$bench" --jobs 99999999999999 e1
expect 2 "$bench" --seed x e1
expect 2 "$bench" --oracle bad e1
expect 2 "$bench" nosuch
expect 2 "$bench" --oracle counts e1

# bin/main.exe: cmdliner's command-line error status is 124; 0 still
# means all recommended cores.  Both CLIs refuse more jobs than the
# runtime has domains (128) before any domain starts.
expect 124 "$main" test --jobs=-3
expect 124 "$main" test --jobs x
expect 124 "$main" test --jobs 129
expect 124 "$main" test --jobs 99999999999999
expect 0 "$main" test --jobs=0 --domain 64 -k 1 --trials 1
expect 124 "$main" test --domain 64 -k 1 --trials 1 --oracle counts

# Ranges the libraries would otherwise reject with an exception: at
# least one piece, eps in (0, 1], a search limit of at least 1.
expect 124 "$main" test --pieces 0
expect 124 "$main" dist --pieces 0
expect 124 "$main" demo-lb --pieces 0
expect 124 "$main" test --eps 0
expect 124 "$main" test --eps 1.5
expect 124 "$main" closeness --eps 0
expect 124 "$main" closeness --eps 1.5
expect 124 "$main" select --k-max 0

# At least one trial and one sample; at most as many pieces as the
# domain has elements (a one-line error once both are known).
expect 124 "$main" test --trials=-1 --domain 64 -k 1
expect 124 "$main" test --trials 0 --domain 64 -k 1
expect 124 "$main" closeness --trials=-1
expect 124 "$main" closeness --trials 0
expect 124 "$main" estimate --samples=-1
expect 124 "$main" estimate --samples 0

# At most 10^6 trials: the harness sizes per-trial arrays by the count.
# 10^6 itself parses (the pieces check then refuses the run at once).
expect 1 "$main" test --trials 1000000 --domain 64 -k 100
expect 124 "$main" test --trials 1000001 --domain 64 -k 1
expect 124 "$main" test --trials 99999999999999 --domain 64 -k 1
expect 124 "$main" closeness --trials 1000001
expect 124 "$main" test-file --file /dev/null --trials 1000001

# A synthetic domain is at most 2^24 values: anything above is refused
# before an array is sized by it.  Only values past the bound here, so a
# broken check cannot allocate a domain-sized array.
for cmd in test dist closeness estimate select demo-lb; do
  expect 124 "$main" $cmd --domain 16777217
  expect 124 "$main" $cmd --domain 99999999999999
done

# demo-lb's instance needs a domain of at least m = 3(k-3)/4 elements.
expect 1 "$main" demo-lb --pieces 5000 --domain 64
expect 1 "$main" demo-lb --domain 0
expect 1 "$main" test --family uniform --domain 64 -k 100 --trials 1
printf '1\n2\n3\n' > "$tmp/small.txt"
expect 124 "$main" test-file --file "$tmp/small.txt" --pieces 0
expect 124 "$main" test-file --file "$tmp/small.txt" --trials 0
expect 1 "$main" test-file --file "$tmp/small.txt" --pieces 5

# A test-file domain above 2^24 is refused before any array is built.
printf '1\n100000000000000\n' > "$tmp/big.txt"
expect 1 "$main" test-file --file "$tmp/big.txt"

# histolint: a path that does not exist, or holds no .cmt, is an error;
# so is a flag it does not have (only --json, --rules and --explain
# remain) and an unknown rule to explain.
expect 2 "$histolint" "$tmp/nonexistent"
expect 2 "$histolint" "$tmp"
expect 2 "$histolint" --strict "$tmp"
expect 2 "$histolint" --only x "$tmp"
expect 2 "$histolint" --lib-prefix x "$tmp"
expect 2 "$histolint" --explain nosuch/rule

exit $fail
