package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/simnet"
)

func seq(s string) []RoundObs {
	out := make([]RoundObs, len(s))
	for i, c := range s {
		switch c {
		case 'R':
			out[i] = ObsRE
		case 'C':
			out[i] = ObsCommodity
		case 'M':
			out[i] = ObsMixed
		case 'L':
			out[i] = ObsLoss
		}
	}
	return out
}

func TestClassify(t *testing.T) {
	tests := []struct {
		seq  string
		want Inference
	}{
		{"RRRRRRRRR", InfAlwaysRE},
		{"CCCCCCCCC", InfAlwaysCommodity},
		{"CCCCCRRRR", InfSwitchToRE},
		{"CRRRRRRRR", InfSwitchToRE},
		{"CCCCCCCCR", InfSwitchToRE},
		{"RRRRCCCCC", InfSwitchToCommodity},
		{"RRRRRRRRC", InfSwitchToCommodity},
		{"CCRRCCRRR", InfOscillating},
		{"RCRCRCRCR", InfOscillating},
		{"CCCMRRRRR", InfMixed},
		{"MMMMMMMMM", InfMixed},
		{"RRRRLRRRR", InfUnresponsive},
		{"LLLLLLLLL", InfUnresponsive},
		{"CCCCMLRRR", InfUnresponsive}, // loss trumps mixed (excluded first)
		{"", InfUnresponsive},
	}
	for _, tt := range tests {
		if got := Classify(seq(tt.seq)); got != tt.want {
			t.Errorf("Classify(%q) = %v, want %v", tt.seq, got, tt.want)
		}
	}
}

func TestClassifyExactlyOneCategory(t *testing.T) {
	// Property: every loss-free sequence lands in exactly one of the
	// paper's categories, and Switch-to-R&E sequences have exactly one
	// C->R transition and no R->C.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]RoundObs, len(raw))
		for i, v := range raw {
			s[i] = []RoundObs{ObsRE, ObsCommodity, ObsMixed}[v%3]
		}
		inf := Classify(s)
		if inf == InfUnresponsive {
			return false // no loss present
		}
		if inf == InfSwitchToRE {
			cr, rc := 0, 0
			for i := 1; i < len(s); i++ {
				if s[i-1] == ObsCommodity && s[i] == ObsRE {
					cr++
				}
				if s[i-1] == ObsRE && s[i] == ObsCommodity {
					rc++
				}
			}
			return cr == 1 && rc == 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwitchConfig(t *testing.T) {
	tests := []struct {
		seq  string
		want int
	}{
		{"CCCCCRRRR", 5},
		{"CRRRRRRRR", 1},
		{"RRRRRRRRR", -1},
		{"CCCCCCCCC", -1},
		{"CCRRCCRRR", -1},
	}
	for _, tt := range tests {
		if got := SwitchConfig(seq(tt.seq)); got != tt.want {
			t.Errorf("SwitchConfig(%q) = %d, want %d", tt.seq, got, tt.want)
		}
	}
}

func TestEqualLocalPrefImplication(t *testing.T) {
	for i := Inference(0); i < numInferences; i++ {
		want := i == InfSwitchToRE
		if i.EqualLocalPref() != want {
			t.Errorf("%v.EqualLocalPref() = %v", i, !want)
		}
	}
}

func TestObserveRound(t *testing.T) {
	p := netutil.MustParsePrefix("10.0.0.0/24")
	re := probe.Record{Prefix: p, Responded: true, VLAN: simnet.VLANRE}
	co := probe.Record{Prefix: p, Responded: true, VLAN: simnet.VLANCommodity}
	lost := probe.Record{Prefix: p, Responded: false}
	tests := []struct {
		recs []probe.Record
		want RoundObs
	}{
		{nil, ObsLoss},
		{[]probe.Record{lost, lost}, ObsLoss},
		{[]probe.Record{re, re, lost}, ObsRE},
		{[]probe.Record{co}, ObsCommodity},
		{[]probe.Record{re, co}, ObsMixed},
	}
	for i, tt := range tests {
		if got := ObserveRound(&probe.Round{Records: tt.recs}, 0, len(tt.recs)); got != tt.want {
			t.Errorf("case %d: ObserveRound = %v, want %v", i, got, tt.want)
		}
	}
}

// rescanFirstTargets is the per-(round, prefix, budget) rescan Observe
// replaced, kept verbatim as its reference: the round's records for
// prefix p restricted to its first k distinct destinations (by
// address, the stable order the prober uses).
func rescanFirstTargets(rd *probe.Round, p netutil.Prefix, k int) []probe.Record {
	var recs []probe.Record
	for _, rec := range expandRecords(rd) {
		if rec.Prefix == p {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Dst < recs[j].Dst })
	seen := map[uint32]bool{}
	var out []probe.Record
	for _, rec := range recs {
		if !seen[rec.Dst] {
			if len(seen) == k {
				break
			}
			seen[rec.Dst] = true
		}
		out = append(out, rec)
	}
	return out
}

// observed is p's sequence among Observe's rows, nil if it has none.
func observed(rows []*PrefixResult, p netutil.Prefix) []RoundObs {
	if pr := (&Result{PerPrefix: rows}).Find(p); pr != nil {
		return pr.Seq
	}
	return nil
}

// requireObserveMatchesRescan checks Observe against the rescan for
// every listed prefix, every round and budgets 0-4, and that Observe
// left every round's records as it found them.
func requireObserveMatchesRescan(t *testing.T, name string, rounds []*probe.Round, prefixes []netutil.Prefix) {
	t.Helper()
	before := make([][]probe.Record, len(rounds))
	for i, rd := range rounds {
		before[i] = expandRecords(rd)
	}
	for k := 0; k <= 4; k++ {
		rows := Observe(rounds, k)
		for i := 1; i < len(rows); i++ {
			if netutil.ComparePrefixes(rows[i-1].Prefix, rows[i].Prefix) >= 0 {
				t.Fatalf("%s k=%d: rows %s, %s out of canonical order", name, k, rows[i-1].Prefix, rows[i].Prefix)
			}
		}
		for _, p := range prefixes {
			seq := observed(rows, p)
			if seq != nil && len(seq) != len(rounds) {
				t.Fatalf("%s k=%d %s: %d observations for %d rounds", name, k, p, len(seq), len(rounds))
			}
			for i, rd := range rounds {
				budget := k
				if k == 0 {
					// No budget: to the rescan, one no prefix can reach.
					budget = rd.Len() + 1
				}
				kept := rescanFirstTargets(rd, p, budget)
				want := ObserveRound(&probe.Round{Records: kept}, 0, len(kept))
				got := ObsLoss // a prefix Observe never saw has no sequence
				if seq != nil {
					got = seq[i]
				}
				if got != want {
					t.Errorf("%s k=%d %s round %d (%s): Observe = %v, rescan = %v", name, k, p, i, rd.Config, got, want)
				}
			}
		}
	}
	for i, rd := range rounds {
		if !reflect.DeepEqual(expandRecords(rd), before[i]) {
			t.Errorf("%s: Observe modified round %d's records", name, i)
		}
	}
}

func TestObserveMatchesRescan(t *testing.T) {
	s := getSurvey(t)
	prefixes := make([]netutil.Prefix, 0, len(s.Sel.Prefixes))
	for _, pt := range s.Sel.Prefixes {
		prefixes = append(prefixes, pt.Prefix)
	}
	requireObserveMatchesRescan(t, "SURF", s.SURF.Rounds, prefixes)
	requireObserveMatchesRescan(t, "Internet2", s.Internet2.Rounds, prefixes)

	// Rounds as probe.ReadJSON can hand them over: records shuffled out
	// of the prober's canonical order, and one prefix missing from one
	// round.
	rng := rand.New(rand.NewSource(1))
	var shuffled []*probe.Round
	for i, rd := range s.Internet2.Rounds[:3] {
		cp := &probe.Round{Config: rd.Config, Start: rd.Start, End: rd.End}
		for _, rec := range expandRecords(rd) {
			if i == 1 && rec.Prefix == prefixes[0] {
				continue
			}
			cp.Records = append(cp.Records, rec)
		}
		rng.Shuffle(len(cp.Records), func(a, b int) { cp.Records[a], cp.Records[b] = cp.Records[b], cp.Records[a] })
		shuffled = append(shuffled, cp)
	}
	requireObserveMatchesRescan(t, "shuffled", shuffled, prefixes)
	if got := observed(Observe(shuffled, 0), prefixes[0])[1]; got != ObsLoss {
		t.Errorf("prefix absent from a round observed as %v there, want loss", got)
	}

	// Hand-built: interleaved prefixes with destinations out of address
	// order (so each budget sees a different answer), a destination
	// repeated within a round, a prefix absent from a round, an empty
	// round, and a prefix no round mentions.
	a := netutil.MustParsePrefix("10.0.0.0/24")
	b := netutil.MustParsePrefix("10.0.1.0/24")
	c := netutil.MustParsePrefix("10.0.2.0/24")
	never := netutil.MustParsePrefix("10.0.3.0/24")
	rec := func(p netutil.Prefix, host uint32, vlan simnet.VLAN) probe.Record {
		return probe.Record{Prefix: p, Dst: p.Addr() + host, Responded: vlan != simnet.VLANNone, VLAN: vlan}
	}
	re, co, lost := simnet.VLANRE, simnet.VLANCommodity, simnet.VLANNone
	hand := []*probe.Round{
		{Config: "interleaved", Records: []probe.Record{
			rec(a, 3, re), rec(b, 1, co), rec(a, 1, co), rec(b, 2, lost), rec(a, 2, lost), rec(c, 1, re),
		}},
		{Config: "repeated-dst", Records: []probe.Record{
			rec(a, 2, re), rec(a, 1, lost), rec(a, 2, co), rec(a, 1, lost), rec(b, 1, re),
		}},
		{Config: "empty"},
	}
	requireObserveMatchesRescan(t, "hand-built", hand, []netutil.Prefix{a, b, c, never})
	for k, want := range map[int][]RoundObs{
		0: {ObsMixed, ObsMixed, ObsLoss},
		1: {ObsCommodity, ObsLoss, ObsLoss},
		2: {ObsCommodity, ObsMixed, ObsLoss},
		3: {ObsMixed, ObsMixed, ObsLoss},
	} {
		if got := observed(Observe(hand, k), a); !reflect.DeepEqual(got, want) {
			t.Errorf("hand-built k=%d: %s observed %v, want %v", k, a, got, want)
		}
	}
}

// TestObserveOrderIndependent: Observe groups by sorting record
// positions, so rounds whose records arrive shuffled must reduce to
// exactly what the prober's canonical order reduces to, under every
// target budget, and the records must stay where the caller put them.
func TestObserveOrderIndependent(t *testing.T) {
	canonical := getSurvey(t).Internet2.Rounds
	rng := rand.New(rand.NewSource(22))
	shuffled := make([]*probe.Round, len(canonical))
	for i, rd := range canonical {
		cp := recordRound(rd)
		rng.Shuffle(len(cp.Records), func(a, b int) { cp.Records[a], cp.Records[b] = cp.Records[b], cp.Records[a] })
		shuffled[i] = cp
	}
	before := make([][]probe.Record, len(shuffled))
	for i, rd := range shuffled {
		before[i] = slices.Clone(rd.Records)
	}
	for k := 0; k <= 3; k++ {
		if got, want := Observe(shuffled, k), Observe(canonical, k); !reflect.DeepEqual(got, want) {
			t.Errorf("maxTargets %d: Observe on shuffled records differs from the canonical order", k)
		}
	}
	for i, rd := range shuffled {
		if !slices.Equal(rd.Records, before[i]) {
			t.Errorf("Observe moved records of round %d", i)
		}
	}
}

// TestObserveAllocs is Observe's allocation ceiling: the rows and their
// sequences come from one allocation each, plus the growth of the row
// slice and of the two position slices reused across rounds — nothing
// per prefix, and no copy of any record. Exact counts, so an ordinary
// test.
func TestObserveAllocs(t *testing.T) {
	rounds := getSurvey(t).Internet2.Rounds
	records := 0
	for _, rd := range rounds {
		records += rd.Len()
	}
	for _, k := range []int{0, 2} {
		prefixes := len(Observe(rounds, k))
		got := testing.AllocsPerRun(5, func() { Observe(rounds, k) })
		t.Logf("maxTargets %d: %.0f allocations for %d records of %d prefixes in %d rounds", k, got, records, prefixes, len(rounds))
		if got > 64 {
			t.Errorf("maxTargets %d: Observe allocates %.0f times, want <= 64", k, got)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	sched := Schedule()
	if len(sched) != 9 {
		t.Fatalf("schedule has %d configs, want 9", len(sched))
	}
	labels := []string{"4-0", "3-0", "2-0", "1-0", "0-0", "0-1", "0-2", "0-3", "0-4"}
	for i, cfg := range sched {
		if cfg.Label() != labels[i] {
			t.Errorf("config %d = %s, want %s", i, cfg.Label(), labels[i])
		}
	}
	// Exactly one announcement attribute changes between consecutive
	// configurations (the design principle of §3.3).
	for i := 1; i < len(sched); i++ {
		dRE := sched[i].RE != sched[i-1].RE
		dC := sched[i].Commodity != sched[i-1].Commodity
		if dRE == dC {
			t.Errorf("configs %d->%d change %v/%v attributes", i-1, i, dRE, dC)
		}
	}
}

func TestInferenceStrings(t *testing.T) {
	seen := map[string]bool{}
	for i := Inference(0); i < numInferences; i++ {
		s := i.String()
		if s == "" || seen[s] {
			t.Errorf("inference %d bad string %q", i, s)
		}
		seen[s] = true
	}
}
