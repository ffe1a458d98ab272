#!/bin/sh
# outputs.sh [file] — digest every deterministic output of the commands.
#
# Builds resurvey, reoptimize, reprobe, reinfer and resurveyd with
# -buildvcs=false (so manifests carry the module version, not a VCS
# stamp), runs a fixed matrix of seeded invocations and writes one
# "sha256  name" line per output to file (default
# testdata/outputs.sha256):
#
#   resurvey stdout and -zerotime manifest at -small with 1 and 4
#   workers, at paper scale, with -faults 0.5 -seeds 2, for the
#   update-storm workload and the hijack scenario, and with -json,
#   -dataset and -snapshot-dir; every -json and -dataset file;
#   reoptimize, reprobe, and reinfer over the -json files; the stdout
#   of examples/survey; a -resume from the middle of SURF (a copy of
#   the -snapshot-dir with its fifth checkpoint on deleted), its stdout
#   and manifest; and RCKP sections 1-6 of every checkpoint of both
#   directories (section 7 is wall-clock telemetry), so the resumed
#   run's rewritten checkpoints must digest like the cold run's; and
#   the output document of a small seed-1 survey job submitted to
#   resurveyd, started on a temporary data dir at localhost:$OUTPUTS_PORT
#   (default 8038) and stopped with SIGTERM once the job is done.
#
# It fails without writing file when two outputs that must be equal
# differ: a resumed run's checkpoint and its cold twin, or the -small
# manifests of the 1- and 4-worker, -json, -snapshot-dir and -resume
# runs.
#
# `make outputs-check` writes a fresh digest and diffs it against the
# committed one. A change that moves output bytes re-pins the file by
# running this script without arguments; the diff then names every
# output that moved.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${1:-$ROOT/testdata/outputs.sha256}"
case "$OUT" in /*) ;; *) OUT="$PWD/$OUT" ;; esac
WORK="$(mktemp -d)"
PID=""
trap '[ -z "$PID" ] || kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

for bin in resurvey reoptimize reprobe reinfer resurveyd; do
    (cd "$ROOT" && go build -buildvcs=false -o "$WORK/bin/$bin" "./cmd/$bin")
done
(cd "$ROOT" && go build -buildvcs=false -o "$WORK/bin/example-survey" ./examples/survey)
mkdir "$WORK/out"
cd "$WORK/out"

# survey <name> <args...>: resurvey's stdout and -zerotime manifest.
survey() {
    name="$1"
    shift
    "$WORK/bin/resurvey" -seed 1 "$@" -zerotime -manifest "$name.json" >"$name.txt"
}
survey small -small -workers 1
survey small-workers4 -small -workers 4
survey paper
survey faults -small -faults 0.5 -seeds 2
survey update-storm -small -workload update-storm -duration 600
survey hijack -small -scenario hijack
survey json -small -json probes -dataset dataset.json.gz
survey ckpt -small -snapshot-dir ckpt
cp -R ckpt ckpt-resume
rm ckpt-resume/ckpt-0-0[5-9].rckp ckpt-resume/ckpt-1-*.rckp
survey resume -small -workers 4 -snapshot-dir ckpt-resume -resume
"$WORK/bin/example-survey" >example-survey.txt
"$WORK/bin/reoptimize" -small -seed 1 -objective catchment:re=0.3 -budget 16 \
    -zerotime -manifest reoptimize.json >reoptimize.txt 2>"$WORK/reoptimize.err"
"$WORK/bin/reprobe" -small -seed 1 -config 0-2 >reprobe.txt 2>"$WORK/reprobe.err"
"$WORK/bin/reinfer" -zerotime -manifest reinfer.json probes/*.json >reinfer.txt

# resurveyd: one small survey job, its output document as served.
BASE="http://localhost:${OUTPUTS_PORT:-8038}"
"$WORK/bin/resurveyd" -addr "${BASE#http://}" -data-dir "$WORK/jobs" >"$WORK/resurveyd.log" 2>&1 &
PID=$!
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "resurveyd never came up:" >&2; cat "$WORK/resurveyd.log" >&2; exit 1; }
    sleep 0.2
done
JOB="$(curl -sf -X POST "$BASE/jobs" -d '{"options":{"small":true,"seed":1,"workers":2}}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "resurveyd returned no job id" >&2; exit 1; }
i=0
until [ "$(curl -sf "$BASE/jobs/$JOB" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')" = done ]; do
    i=$((i + 1))
    [ "$i" -le 300 ] || { echo "resurveyd job $JOB not done:" >&2; cat "$WORK/resurveyd.log" >&2; exit 1; }
    sleep 0.2
done
curl -sf "$BASE/jobs/$JOB/output" >resurveyd-survey.json
kill -TERM "$PID"
wait "$PID"
PID=""

{
    find . -type f ! -name '*.rckp' | sed 's|^\./||' | LC_ALL=C sort | xargs sha256sum
    # An RCKP file is magic[4] version:u16 then sections of id:u8
    # length:uvarint payload crc32:u32, in id order; digest the bytes
    # before section 7.
    python3 - ckpt/*.rckp ckpt-resume/*.rckp <<'PY'
import hashlib, sys
for name in sys.argv[1:]:
    b = open(name, "rb").read()
    i = 6
    while b[i] != 7:
        j, n, shift = i + 1, 0, 0
        while True:
            c = b[j]
            j += 1
            n |= (c & 0x7F) << shift
            shift += 7
            if c < 0x80:
                break
        i = j + n + 4
    print(hashlib.sha256(b[:i]).hexdigest() + "  " + name + " sections 1-6")
PY
} >"$WORK/sums"

# Outputs that must be equal, or the digest file is not written: every
# checkpoint of the resumed run digests like the cold run's twin, and
# the five -small runs (1 and 4 workers, -json, -snapshot-dir, -resume)
# write one manifest.
awk '
    { h = $1; sub(/^[^ ]*  /, ""); d[$0] = h }
    END {
        bad = 0
        for (n in d) {
            t = n
            if (!sub(/^ckpt-resume\//, "ckpt/", t) && !sub(/^ckpt\//, "ckpt-resume/", t))
                continue
            if (d[t] != d[n]) {
                print "outputs.sh: " n " does not digest like " t > "/dev/stderr"
                bad = 1
            }
        }
        split("small-workers4.json json.json ckpt.json resume.json", m, " ")
        for (i in m)
            if (d[m[i]] != d["small.json"]) {
                print "outputs.sh: " m[i] " does not digest like small.json" > "/dev/stderr"
                bad = 1
            }
        exit bad
    }' "$WORK/sums"
mv "$WORK/sums" "$OUT"
