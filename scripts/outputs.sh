#!/bin/sh
# outputs.sh [file] — digest every deterministic output of the commands.
#
# Builds resurvey, reoptimize, reprobe and reinfer with -buildvcs=false
# (so manifests carry the module version, not a VCS stamp), runs a
# fixed matrix of seeded invocations and writes one "sha256  name" line
# per output to file (default testdata/outputs.sha256):
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
#   run's rewritten checkpoints must digest like the cold run's.
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
trap 'rm -rf "$WORK"' EXIT

for bin in resurvey reoptimize reprobe reinfer; do
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
mv "$WORK/sums" "$OUT"
