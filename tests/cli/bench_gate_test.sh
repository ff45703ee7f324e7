#!/bin/sh
# `mctc bench --check` exit contract against copies of the committed
# baselines: 0 and a grid on stdout when nothing changed, 2 naming the
# record when an extra differs, 2 when a baseline file is missing, and 1
# for an unknown suite.
#
# Usage: bench_gate_test.sh <path-to-mctc> <bench-baselines-dir>
set -u

MCTC="$1"
BASELINES="$2"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fails=0

fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

# gate SUITE: runs one suite against $TMP/base; exit code in $got.
gate() {
  "$MCTC" bench --bench "$1" --scale 0.1 --reps 1 --out "$TMP/out" \
    --check --strict --baselines "$TMP/base" \
    > "$TMP/stdout" 2> "$TMP/stderr"
  got=$?
}

mkdir -p "$TMP/out" "$TMP/base"
for suite in figures collection; do
  cp "$BASELINES/BENCH_$suite.json" "$TMP/base/"
  gate "$suite"
  if [ "$got" -ne 0 ]; then
    fail "$suite against unchanged baselines: expected exit 0, got $got"
    cat "$TMP/stderr" >&2
  elif ! grep -q "^$suite: scale 0.1" "$TMP/stdout"; then
    fail "$suite: no report grid on stdout"
  else
    echo "ok: $suite passes its unchanged baseline"
  fi
done

# DEEP/Q1 plans 6 structural joins; a baseline that says 7 must fail.
sed 's/"schema":"DEEP","query":"Q1",\([^{]*\){"structural_joins":6,/"schema":"DEEP","query":"Q1",\1{"structural_joins":7,/' \
  "$BASELINES/BENCH_figures.json" > "$TMP/base/BENCH_figures.json"
if cmp -s "$BASELINES/BENCH_figures.json" "$TMP/base/BENCH_figures.json"; then
  fail "could not edit the figures baseline"
fi
gate figures
if [ "$got" -ne 2 ]; then
  fail "edited extra: expected exit 2, got $got"
elif ! grep -q "REGRESSION figures: figures DEEP/Q1: structural_joins" \
    "$TMP/stderr"; then
  fail "edited extra: stderr does not name DEEP/Q1"
  cat "$TMP/stderr" >&2
else
  echo "ok: an edited extra fails and names its record"
fi

rm "$TMP/base/BENCH_collection.json"
gate collection
if [ "$got" -ne 2 ]; then
  fail "missing baseline: expected exit 2, got $got"
elif ! grep -q "REGRESSION collection: baseline" "$TMP/stderr"; then
  fail "missing baseline: stderr does not say so"
else
  echo "ok: a missing baseline fails"
fi

gate nosuch
if [ "$got" -ne 1 ]; then
  fail "--bench nosuch: expected exit 1, got $got"
else
  echo "ok: an unknown suite is a usage error"
fi

[ "$fails" -eq 0 ]
