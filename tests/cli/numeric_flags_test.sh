#!/bin/sh
# Numeric flags of every `mctc` command parse strictly: a malformed value
# ("12x", "x", "-1" for a count, "abc") prints `error: bad <flag> '<value>'`
# and exits 1, instead of running with a truncated or wrapped number.
#
# Usage: numeric_flags_test.sh <path-to-mctc> <examples-designs-dir>
set -u

MCTC="$1"
ER="$2/blog.er"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
ERR="$TMP/stderr"
fails=0

# bad FLAG VALUE COMMAND [ARGS...]: `mctc COMMAND ARGS... FLAG VALUE` must
# exit 1 and name the flag and the value on stderr.
bad() {
  flag="$1"
  value="$2"
  shift 2
  "$MCTC" "$@" "$flag" "$value" > /dev/null 2> "$ERR"
  got=$?
  if [ "$got" -ne 1 ]; then
    echo "FAIL: $1 $flag '$value': expected exit 1, got $got" >&2
    fails=$((fails + 1))
  elif ! grep -qF "error: bad $flag '$value'" "$ERR"; then
    echo "FAIL: $1 $flag '$value': stderr does not name the flag:" >&2
    cat "$ERR" >&2
    fails=$((fails + 1))
  else
    echo "ok: $1 $flag '$value'"
  fi
}

bad --base 12x            workload "$ER"
bad --reps 2x             workload "$ER"
bad --update-fraction x   workload "$ER"
bad --threads abc         workload "$ER"
bad --threads 0           workload "$ER"
bad --max -1              paths "$ER"
bad --id 7q               trace "$ER"
bad --base -3             trace "$ER"
bad --id x                blackbox "$TMP/dump.bin"
bad --port 70000          serve "$ER"
bad --passes 1.5          serve "$ER"
bad --linger -1           serve "$ER"
bad --update-ops 5k       serve "$ER"
bad --label-stride 4294967296 serve "$ER"
bad --ops 3x              update "$ER" --store "$TMP/store"
bad --take ""             update "$ER" --store "$TMP/store"
bad --crash-after -2      update "$ER" --store "$TMP/store"
bad --base x              recover "$ER" --store "$TMP/store"
bad --reps 0              bench
bad --tolerance nan       bench
bad --min-abs -0.1        bench

# Well-formed values still run.
if "$MCTC" workload "$ER" --base 8 --reps 2 > /dev/null 2>&1; then
  echo "ok: workload --base 8 --reps 2 (exit 0)"
else
  echo "FAIL: workload --base 8 --reps 2 must exit 0" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all numeric-flag cases passed"
