#!/bin/sh
# CLI observability contract (README "Introspection"):
#   * `mctc trace --updates` prints update span trees in (lsn, start)
#     order — group commit may complete ops out of LSN order, but the
#     listing must not jump around the LSN axis. Trace ids are minted
#     sequentially as the ops execute, so in the sorted output the root
#     spans' trace_id values must be non-decreasing.
#   * `mctc --flight-dump PATH trace --id 0 --updates` runs the workload
#     through the query service with the flight recorder on and renders
#     the event timeline; the explicit dump decodes via `mctc blackbox`.
#   * `mctc blackbox` exits 2 on garbage input.
#
# Usage: observability_test.sh <path-to-mctc> <examples-designs-dir>
set -u

MCTC="$1"
DESIGNS="$2"
ER="$DESIGNS/warehouse.er"
TMP="${TMPDIR:-/tmp}/mctc_obs_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
fails=0

fail() {
  echo "FAIL: $1" >&2
  fails=$((fails + 1))
}

# --- trace --updates ordering -------------------------------------------
"$MCTC" trace --updates --json "$ER" > "$TMP/updates.json" 2> "$TMP/updates.err"
if [ $? -ne 0 ]; then
  fail "trace --updates --json exited non-zero: $(cat "$TMP/updates.err")"
fi
# Root spans of the per-op lines (after the query array line) carry
# monotonically increasing trace ids when sorted by (lsn, start).
grep -o '"trace_id":[0-9]*' "$TMP/updates.json" \
  | cut -d: -f2 > "$TMP/trace_ids.txt"
if [ ! -s "$TMP/trace_ids.txt" ]; then
  fail "trace --updates --json produced no trace ids"
else
  if ! sort -n -c "$TMP/trace_ids.txt" 2>/dev/null; then
    fail "update spans not in (lsn, start) order: trace ids regress"
  else
    echo "ok: trace --updates ordering ($(wc -l < "$TMP/trace_ids.txt") spans)"
  fi
fi

# --- live trace through the service + blackbox decode -------------------
DUMP="$TMP/flight.bin"
"$MCTC" --flight-dump "$DUMP" trace --id 0 --updates "$ER" \
  > "$TMP/live.txt" 2> "$TMP/live.err"
if [ $? -ne 0 ]; then
  fail "trace --id 0 --updates exited non-zero: $(cat "$TMP/live.err")"
fi
for site in admit wal.wal_append wal.wal_fsync; do
  if ! grep -q "$site" "$TMP/live.txt"; then
    fail "live timeline is missing '$site' events"
  fi
done
if ! grep -q 'trace_id=' "$TMP/live.err"; then
  fail "trace --id did not announce minted trace ids on stderr"
fi
echo "ok: live trace timeline covers admission and WAL"

# --- crash dump: kill an update run mid-workload, decode the black box --
CRASH_DUMP="$TMP/crash.bin"
"$MCTC" --flight-dump "$CRASH_DUMP" update "$ER" \
  --store "$TMP/crash.store" --ops 6 --crash-after 3 \
  > /dev/null 2> "$TMP/crash.err"
rc=$?
if [ "$rc" -ne 137 ]; then
  fail "crash-after run must exit 137, got $rc"
fi
if [ ! -s "$CRASH_DUMP" ]; then
  fail "crashed update left no flight-recorder dump"
else
  "$MCTC" blackbox "$CRASH_DUMP" > "$TMP/blackbox.txt" 2>&1
  if [ $? -ne 0 ]; then
    fail "blackbox failed to decode the crash dump: $(cat "$TMP/blackbox.txt")"
  elif ! grep -q 'wal.wal_append' "$TMP/blackbox.txt"; then
    fail "crash dump is missing the in-flight WAL append events"
  else
    echo "ok: crash dump decodes with WAL events"
  fi
  # `--json` renders the same dump as one JSON document.
  "$MCTC" blackbox "$CRASH_DUMP" --json > "$TMP/bb.json" 2>&1
  if [ $? -ne 0 ] || ! grep -q '"events"' "$TMP/bb.json"; then
    fail "blackbox --json could not render the dump"
  fi
fi

# --- blackbox error contract --------------------------------------------
echo "garbage, not a dump" > "$TMP/garbage.bin"
"$MCTC" blackbox "$TMP/garbage.bin" > /dev/null 2>&1
if [ $? -ne 2 ]; then
  fail "blackbox on garbage must exit 2"
else
  echo "ok: blackbox rejects garbage with exit 2"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all observability CLI cases passed"
