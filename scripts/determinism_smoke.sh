#!/bin/sh
# determinism_smoke.sh <family> — run-it-twice determinism smoke.
#
# Runs every case of one family twice at reduced scale and requires
# byte-identical stdout and byte-identical -zerotime manifests between
# the two invocations, then checks the family's own invariants:
#
#   workload  update-storm, flap-cascade-rfd, diurnal-churn through the
#             virtual-clock engine; the RFD cascade must actually
#             suppress. A diff means the event engine, the workload
#             generators or the prober leaked scheduling nondeterminism.
#   scenario  hijack and leak sweeps over the ROV adoption ladder; full
#             adoption must suppress the hijack to zero polluted ASes,
#             and must NOT contain the leak (it keeps its true origin).
#   optimize  hillclimb and evolve searches; every run must go through
#             warm snapshot restores (opt_warm_restores_total > 0) and
#             improve on the baseline, and hillclimb at -workers 8 must
#             reproduce the -workers 2 bytes: the concurrent evaluator
#             merges in submission order, never arrival order.
#
# Any failure exits non-zero.
set -eu

FAMILY="${1:-}"
case "$FAMILY" in
workload | scenario) BIN=resurvey ;;
optimize) BIN=reoptimize ;;
*)
    echo "usage: $0 workload|scenario|optimize" >&2
    exit 2
    ;;
esac

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/$BIN" "./cmd/$BIN"

# run_once <name> <pass> <args...>: each pass runs in its own directory
# with the same relative -manifest path, so the "manifest written to"
# line (and thus the whole stdout) is comparable verbatim. stderr (the
# optimizer's per-generation progress) is shown only if the run fails.
run_once() {
    name="$1"
    pass="$2"
    shift 2
    mkdir -p "$WORK/$name.$pass"
    (cd "$WORK/$name.$pass" && "$WORK/$BIN" -small -seed 1 "$@" \
        -zerotime -manifest "$name.json") >"$WORK/$name.$pass.out" 2>"$WORK/$name.$pass.err" ||
        { echo "$FAMILY $name: run failed:" >&2; cat "$WORK/$name.$pass.err" >&2; exit 1; }
}

# same <name> <pass-a> <pass-b> <what>
same() {
    cmp "$WORK/$1.$2.out" "$WORK/$1.$3.out" ||
        { echo "$FAMILY $1: stdout differs between $4" >&2; exit 1; }
    cmp "$WORK/$1.$2/$1.json" "$WORK/$1.$3/$1.json" ||
        { echo "$FAMILY $1: manifest differs between $4" >&2; exit 1; }
}

run_twice() {
    name="$1"
    shift
    run_once "$name" 1 "$@"
    run_once "$name" 2 "$@"
    same "$name" 1 2 runs
    echo "$FAMILY $name: twice, stdout and manifest byte-identical"
}

case "$FAMILY" in
workload)
    run_twice update-storm -workload update-storm -duration 600
    run_twice flap-cascade-rfd -workload flap-cascade-rfd -duration 1200
    run_twice diurnal-churn -workload diurnal-churn -duration 7200

    # The RFD cascade must actually exercise damping, not just run.
    grep -q '[1-9][0-9]* rfd suppressions' "$WORK/flap-cascade-rfd.1.out" ||
        { echo "flap-cascade-rfd triggered no suppressions:" >&2
          cat "$WORK/flap-cascade-rfd.1.out" >&2; exit 1; }
    echo "workload smoke OK: three workloads reproducible"
    ;;

scenario)
    run_twice hijack -scenario hijack
    run_twice leak -scenario leak

    # Full ROV adoption must fully suppress the hijack: the 1.00 row's
    # polluted-AS column must be zero.
    awk '$1 == "1.00" { found = 1; if ($3 + 0 != 0) { print "hijack at full ROV left " $3 " ASes polluted" > "/dev/stderr"; exit 1 } } END { if (!found) { print "no adoption-1.00 row in hijack sweep output" > "/dev/stderr"; exit 1 } }' \
        "$WORK/hijack.1.out"

    # A leak keeps its true origin, so ROV must NOT contain it: every
    # injected row reports the same non-zero leak catchment.
    awk '$1 ~ /^[01]\./ { if ($7 == "0/0") { print "leak sweep row " $1 " shows no leak catchment" > "/dev/stderr"; exit 1 } }' \
        "$WORK/leak.1.out"
    echo "scenario smoke OK: both families reproducible, ROV contains hijacks and not leaks"
    ;;

optimize)
    for strategy in hillclimb evolve; do
        run_twice "$strategy" -objective catchment:re=0.3 -strategy "$strategy" -budget 8 -workers 2
        manifest="$WORK/$strategy.1/$strategy.json"

        # The search must have gone through warm snapshot restores, not
        # fresh world builds: the whole point of the harness.
        grep -A 1 '"name": "opt_warm_restores_total"' "$manifest" | grep -q '"value": 0$' &&
            { echo "strategy $strategy: no warm restores recorded" >&2; exit 1; }
        grep -q '"name": "opt_warm_restores_total"' "$manifest" ||
            { echo "strategy $strategy: warm-restore counter missing from manifest" >&2; exit 1; }

        # The budget is generous enough that both strategies beat the
        # baseline on the small world; a non-positive improvement means
        # the evaluator or the searcher regressed.
        grep '^Improvement: +0\.0*[1-9]' "$WORK/$strategy.1.out" >/dev/null ||
            { echo "strategy $strategy: no improvement over baseline" >&2; exit 1; }
    done

    run_once hillclimb wide -objective catchment:re=0.3 -strategy hillclimb -budget 8 -workers 8
    same hillclimb 1 wide "-workers 2 and 8"
    echo "worker widths 2 and 8 byte-identical"
    echo "optimize smoke OK: both strategies reproducible, warm-started, and improving"
    ;;
esac
