#!/bin/sh
# serve_smoke.sh — end-to-end smoke of cmd/resurveyd.
#
# Starts the daemon on a scratch data dir, submits a small survey job,
# polls until it is done, checks /healthz, /metrics, and the output
# document, then sends SIGTERM and requires a clean graceful-shutdown
# exit (status 0, drained jobs). Any failure exits non-zero.
set -eu

ADDR="localhost:${SERVE_SMOKE_PORT:-8037}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/resurveyd" ./cmd/resurveyd

"$WORK/resurveyd" -addr "$ADDR" -data-dir "$WORK/jobs" -max-jobs 2 >"$WORK/log" 2>&1 &
PID=$!

# Wait for the listener.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "resurveyd never came up; log:" >&2
        cat "$WORK/log" >&2
        exit 1
    fi
    sleep 0.2
done

# Submit a small survey job; expect 202 with an id.
SUBMIT="$(curl -sf -X POST "$BASE/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"options": {"small": true, "seed": 1}}')"
JOB="$(echo "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "submit returned no job id: $SUBMIT" >&2; exit 1; }

# A submission with a bogus option must be a 400, not a crash.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/jobs" -d '{"options": {"faults": 2}}')"
[ "$CODE" = "400" ] || { echo "bad submission returned $CODE, want 400" >&2; exit 1; }

# Poll the job to done.
i=0
while :; do
    STATE="$(curl -sf "$BASE/jobs/$JOB" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
    case "$STATE" in
    done) break ;;
    failed | cancelled) echo "job settled $STATE" >&2; cat "$WORK/log" >&2; exit 1 ;;
    esac
    i=$((i + 1))
    [ "$i" -le 300 ] || { echo "job stuck in $STATE" >&2; exit 1; }
    sleep 0.2
done

# Output document: must be JSON with the surf digest, the analysis
# report (Table 4 included) and a manifest.
OUT="$(curl -sf "$BASE/jobs/$JOB/output")"
echo "$OUT" | grep -q '"surf"' || { echo "output missing surf digest: $OUT" >&2; exit 1; }
# printf, not echo: sh's echo would expand the report's \n escapes.
printf '%s\n' "$OUT" | grep -q '"analysis":"[^"]*Table 4:' || { echo "output analysis missing Table 4" >&2; exit 1; }
echo "$OUT" | grep -q '"manifest"' || { echo "output missing manifest" >&2; exit 1; }

# Health and metrics reflect the completed job.
curl -sf "$BASE/healthz" | grep -q '"status":"ok"' || { echo "healthz not ok" >&2; exit 1; }
METRICS="$(curl -sf "$BASE/metrics")"
echo "$METRICS" | grep -q '^serve_jobs_accepted_total 1$' || { echo "metrics missing accepted=1:" >&2; echo "$METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q '^serve_jobs_completed_total 1$' || { echo "metrics missing completed=1:" >&2; echo "$METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q '^serve_checkpoints_total' || { echo "metrics missing checkpoint counter" >&2; exit 1; }

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
[ "$STATUS" = "0" ] || { echo "resurveyd exited $STATUS on SIGTERM; log:" >&2; cat "$WORK/log" >&2; exit 1; }
grep -q "clean exit" "$WORK/log" || { echo "no clean-exit line in log:" >&2; cat "$WORK/log" >&2; exit 1; }

echo "serve smoke OK: job $JOB done, metrics consistent, graceful shutdown clean"
