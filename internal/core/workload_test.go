package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/netutil"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func runNamedWorkload(t *testing.T, name string, d vtime.Time, workers int, round bool) (*WorkloadResult, string) {
	t.Helper()
	p := NewPipeline(WithSmall(), WithSeed(1), WithWorkers(workers))
	s := p.NewSurvey()
	res, err := p.runWorkload(s, WorkloadOptions{Name: name, Duration: d, RoundMode: round})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Every named-workload test doubles as a check of the reported
	// digest against the probing oracle (ribdigest_test.go).
	if want := ribDigestProbe(s.Eco, nil); res.RIBDigest != want {
		t.Fatalf("%s: reported rib digest %016x, probing oracle %016x", name, res.RIBDigest, want)
	}
	var buf bytes.Buffer
	WriteWorkloadReport(&buf, res)
	return res, buf.String()
}

// TestWorkloadWorkersEqualityMatrix runs each named workload at
// workers 1 and 4 and requires byte-identical reports (including the
// RIB digest): the engine's (time, seq) ordering, the per-stream RNGs,
// and the prober's sharding must make width invisible.
func TestWorkloadWorkersEqualityMatrix(t *testing.T) {
	cases := []struct {
		name string
		d    vtime.Time
	}{
		{"update-storm", 600},
		{"flap-cascade-rfd", 2400},
		{"diurnal-churn", 7200},
		{"hijack-flash", 2400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res1, rep1 := runNamedWorkload(t, tc.name, tc.d, 1, false)
			res4, rep4 := runNamedWorkload(t, tc.name, tc.d, 4, false)
			if rep1 != rep4 {
				t.Fatalf("reports differ between workers 1 and 4:\n--- w1 ---\n%s--- w4 ---\n%s", rep1, rep4)
			}
			if res1.RIBDigest != res4.RIBDigest {
				t.Fatalf("rib digests differ: %016x vs %016x", res1.RIBDigest, res4.RIBDigest)
			}
			if res1.Dispatched == 0 {
				t.Fatal("no events dispatched")
			}
		})
	}
}

// TestFlapCascadeExercisesRFD asserts the tentpole's RFD contract: the
// flap-cascade-rfd workload under the event engine accrues penalties
// and crosses the suppression threshold, observed through the
// bgp_rfd_* counters, while vtime_* confirms the engine dispatched
// the schedule.
func TestFlapCascadeExercisesRFD(t *testing.T) {
	res, _ := runNamedWorkload(t, "flap-cascade-rfd", 2400, 2, false)
	if res.RFDPenalties == 0 {
		t.Fatal("flap cascade accrued no RFD penalties")
	}
	if res.RFDSuppressions == 0 {
		t.Fatal("flap cascade triggered no RFD suppressions")
	}
	if res.Scheduled == 0 || res.Dispatched == 0 {
		t.Fatalf("vtime counters empty: scheduled=%d dispatched=%d", res.Scheduled, res.Dispatched)
	}
	if res.EventsByKind["withdraw"] == 0 || res.EventsByKind["announce"] == 0 {
		t.Fatalf("flap events missing: %v", res.EventsByKind)
	}
}

// TestWorkloadRoundModeQuantizes runs the same schedule through the
// round-compatibility mode: it must complete deterministically
// and land every dispatch on a round boundary (observable as an
// identical dispatch count with coarser timer behaviour).
func TestWorkloadRoundModeQuantizes(t *testing.T) {
	event, _ := runNamedWorkload(t, "flap-cascade-rfd", 1200, 1, false)
	round1, rep1 := runNamedWorkload(t, "flap-cascade-rfd", 1200, 1, true)
	_, rep4 := runNamedWorkload(t, "flap-cascade-rfd", 1200, 4, true)
	if rep1 != rep4 {
		t.Fatalf("round-mode reports differ between widths:\n%s\nvs\n%s", rep1, rep4)
	}
	if round1.Dispatched != event.Dispatched {
		t.Fatalf("round mode dropped events: %d vs %d", round1.Dispatched, event.Dispatched)
	}
}

// TestRoundModeRounding holds the runner's RoundMode rounding on an
// engine: dispatch times round up to the next DefaultRoundGap boundary,
// a boundary stays put, handlers that land on one boundary keep their
// scheduling order, and a horizon that ends mid-round is rounded up so
// that round's events still fire. Event mode leaves every time as is.
func TestRoundModeRounding(t *testing.T) {
	const gap = DefaultRoundGap
	e := vtime.NewEngine(0)
	var got []vtime.Time
	var order []int
	rec := func(id int) vtime.Handler {
		return func(now vtime.Time) { got = append(got, now); order = append(order, id) }
	}
	e.At(onRound(1, true), rec(0))     // -> gap
	e.At(onRound(gap-1, true), rec(1)) // -> gap, after id 0
	e.At(onRound(gap, true), rec(2))   // a boundary stays
	e.At(onRound(gap+1, true), rec(3)) // -> 2·gap
	if n := e.RunUntil(onRound(gap+gap/2, true)); n != 4 {
		t.Fatalf("RunUntil(onRound(1.5 gaps)) dispatched %d, want 4", n)
	}
	if want := []vtime.Time{gap, gap, gap, 2 * gap}; !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	if e.Now() != 2*gap {
		t.Fatalf("clock at %d, want the rounded horizon %d", e.Now(), 2*gap)
	}
	for _, tm := range []vtime.Time{0, 1, gap - 1, gap, gap + 1} {
		if r := onRound(tm, false); r != tm {
			t.Errorf("event mode moved %d to %d", tm, r)
		}
	}
}

// TestCommutingEventsInterleaving is the property test: scheduling the
// same set of commuting events (disjoint prefixes, disjoint sessions)
// at the same timestamps in different At() orders — which permutes
// their heap sequence numbers and hence dispatch order — must converge
// to the identical final RIB.
func TestCommutingEventsInterleaving(t *testing.T) {
	build := func() (*Survey, []workload.Event) {
		p := NewPipeline(WithSmall(), WithSeed(3))
		s := p.NewSurvey()
		s.Eco.Net.RunToQuiescence()
		var evs []workload.Event
		// Disjoint per-origin actions: withdraw+re-announce different
		// prefixes, flap different sessions — pairwise commuting.
		n := 0
		for _, pi := range s.Eco.Prefixes {
			if n >= 6 {
				break
			}
			info := s.Eco.AS(pi.Origin)
			if info == nil {
				continue
			}
			evs = append(evs,
				workload.Event{At: 100, Kind: workload.KindWithdraw, Router: info.Router, Prefix: pi.Prefix},
				workload.Event{At: 200, Kind: workload.KindAnnounce, Router: info.Router, Prefix: pi.Prefix},
			)
			n++
		}
		return s, evs
	}

	digestAfter := func(order []int) uint64 {
		s, evs := build()
		net := s.Eco.Net
		start := vtime.Time(net.Now())
		eng := vtime.NewEngine(start)
		eng.Coupling = func(from, to vtime.Time) { net.Run(bgp.Time(to)) }
		for _, i := range order {
			ev := evs[i]
			eng.At(start+ev.At, func(now vtime.Time) {
				switch ev.Kind {
				case workload.KindWithdraw:
					net.WithdrawOrigination(ev.Router, ev.Prefix)
				case workload.KindAnnounce:
					net.Originate(ev.Router, ev.Prefix)
				}
			})
		}
		eng.RunUntil(start + 300)
		net.RunToQuiescence()
		return ribDigest(s.Eco, nil)
	}

	_, evs := build()
	n := len(evs)
	if n < 8 {
		t.Fatalf("too few events for the property: %d", n)
	}
	identity := make([]int, n)
	reversed := make([]int, n)
	rotated := make([]int, n)
	evenOdd := make([]int, 0, n)
	for i := range identity {
		identity[i] = i
		reversed[i] = n - 1 - i
		rotated[i] = (i + 3) % n
	}
	for i := 0; i < n; i += 2 {
		evenOdd = append(evenOdd, i)
	}
	for i := 1; i < n; i += 2 {
		evenOdd = append(evenOdd, i)
	}

	want := digestAfter(identity)
	for name, order := range map[string][]int{
		"reversed": reversed, "rotated": rotated, "even-odd": evenOdd,
	} {
		if got := digestAfter(order); got != want {
			t.Fatalf("interleaving %s: digest %016x, want %016x", name, got, want)
		}
	}
}

// TestReplayWorkload feeds a synthetic trace through the replay
// generator end to end: recorded gaps become virtual schedule times
// and the updates land at the right origins.
func TestReplayWorkload(t *testing.T) {
	p := NewPipeline(WithSmall(), WithSeed(1))
	// Peek at the ecosystem to learn real study prefixes, then build a
	// fresh pipeline run for the replay itself.
	probeEco := p.NewSurvey().Eco
	if len(probeEco.Prefixes) < 2 {
		t.Fatal("ecosystem too small")
	}
	p1 := probeEco.Prefixes[0].Prefix
	p2 := probeEco.Prefixes[1].Prefix

	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	writeU := func(ts int64, us uint32, announce bool, pfx netutil.Prefix) {
		u := &mrt.Update{Timestamp: ts, Microsecond: us, Announce: announce, Prefix: pfx}
		if announce {
			u.Path = asn.Path{probeEco.Prefixes[0].Origin}
		}
		if err := w.WriteUpdate(u); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	writeU(1000, 0, false, p1)
	writeU(1030, 500000, true, p1)
	writeU(1020, 0, false, p2) // non-monotonic: clamps forward
	writeU(1090, 0, true, p2)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	s := p.NewSurvey()
	res, err := p.runWorkload(s, WorkloadOptions{
		Name: "replay", Duration: 600, Trace: bytes.NewReader(buf.Bytes()),
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := ribDigestProbe(s.Eco, nil); res.RIBDigest != want {
		t.Fatalf("replay: reported rib digest %016x, probing oracle %016x", res.RIBDigest, want)
	}
	if got := res.EventsByKind["withdraw"]; got != 2 {
		t.Fatalf("withdraws applied: %d, want 2", got)
	}
	if got := res.EventsByKind["announce"]; got != 2 {
		t.Fatalf("announces applied: %d, want 2", got)
	}
	if res.ReplayClamped != 1 {
		t.Fatalf("clamped %d, want 1", res.ReplayClamped)
	}
}

// TestWorkloadValidation covers the error paths.
func TestWorkloadValidation(t *testing.T) {
	p := NewPipeline(WithSmall(), WithSeed(1))
	if _, err := p.RunWorkload(WorkloadOptions{Name: "no-such"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := p.RunWorkload(WorkloadOptions{Name: "replay"}); err == nil {
		t.Fatal("replay without trace accepted")
	}
	if !KnownWorkload("update-storm") || KnownWorkload("bogus") {
		t.Fatal("KnownWorkload wrong")
	}
}
