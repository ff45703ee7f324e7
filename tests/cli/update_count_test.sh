#!/bin/sh
# POST /update?count= contract of `mctc serve --updates`: count must be an
# integer in 1..1000. Any other value (negative, non-numeric, zero, too
# large, past UINT64_MAX) is a 400 with a JSON error and applies nothing;
# a valid count applies that many ops, and /metrics still answers after.
#
# Usage: update_count_test.sh <path-to-mctc> <examples-designs-dir>
set -u

MCTC="$1"
DESIGNS="$2"
TMP="${TMPDIR:-/tmp}/mctc_update_count_$$"
mkdir -p "$TMP"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null
    wait "$SERVE_PID" 2>/dev/null
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT
fails=0

fail() {
  echo "FAIL: $1" >&2
  fails=$((fails + 1))
}

"$MCTC" serve "$DESIGNS/blog.er" --port 0 --threads 1 --passes 1 \
  --linger 60 --updates > "$TMP/serve.out" 2> "$TMP/serve.err" &
SERVE_PID=$!
for i in $(seq 1 100); do
  grep -q serving "$TMP/serve.out" && break
  sleep 0.1
done
PORT=$(grep -o '127.0.0.1:[0-9]*' "$TMP/serve.out" | head -1 | cut -d: -f2)
if [ -z "$PORT" ]; then
  echo "FAIL: serve did not announce a port: $(cat "$TMP/serve.err")" >&2
  exit 1
fi
URL="http://127.0.0.1:$PORT"

# post COUNT -> prints the HTTP status, body in $TMP/body.json
post() {
  curl -s -m 10 -o "$TMP/body.json" -w '%{http_code}' -X POST \
    "$URL/update?store=AF&count=$1"
}

for bad in -1 abc 0 1001 18446744073709551617; do
  code=$(post "$bad")
  if [ "$code" != "400" ]; then
    fail "count=$bad must be 400, got '$code'"
  elif ! grep -q '"error"' "$TMP/body.json"; then
    fail "count=$bad: 400 without a JSON error: $(cat "$TMP/body.json")"
  fi
done

code=$(post 2)
if [ "$code" != "200" ]; then
  fail "count=2 must be 200, got '$code': $(cat "$TMP/body.json")"
elif ! grep -q '"applied":2,' "$TMP/body.json"; then
  fail "count=2 must apply 2 ops: $(cat "$TMP/body.json")"
else
  echo "ok: count=2 applied 2 ops"
fi
# Nothing before the valid post applied anything: the stream index is 2.
if ! grep -q '"index":2,' "$TMP/body.json"; then
  fail "a rejected count applied ops: $(cat "$TMP/body.json")"
fi

if ! curl -sf -m 10 "$URL/metrics" | grep -q 'mctsvc_updates_submitted_total 2$'; then
  fail "/metrics did not answer with 2 submitted updates"
else
  echo "ok: /metrics answers after the posts"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all POST /update count cases passed"
