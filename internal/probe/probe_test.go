package probe

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/netutil"
	"repro/internal/seeds"
	"repro/internal/simnet"
	"repro/internal/topo"
)

func setup(t *testing.T) (*topo.Ecosystem, *simnet.World, *seeds.Selection, *Prober) {
	t.Helper()
	return setupWorld(t, simnet.DefaultWorldConfig())
}

func setupWorld(t *testing.T, cfg simnet.WorldConfig) (*topo.Ecosystem, *simnet.World, *seeds.Selection, *Prober) {
	t.Helper()
	return buildWorld(topo.SmallConfig(), cfg)
}

// buildWorld builds an ecosystem from tc and a world on it from cfg,
// selects up to three targets per prefix, and converges the
// measurement prefix announced from Internet2 and the commodity origin.
func buildWorld(tc topo.GenConfig, cfg simnet.WorldConfig) (*topo.Ecosystem, *simnet.World, *seeds.Selection, *Prober) {
	eco := topo.Build(tc)
	w := simnet.BuildWorld(eco, cfg)
	cat := seeds.BuildCatalog(eco, w, seeds.DefaultCatalogConfig())
	var prefixes []netutil.Prefix
	for _, pi := range eco.Prefixes {
		prefixes = append(prefixes, pi.Prefix)
	}
	// Mirror §3.2: drop prefixes entirely covered by others before
	// probing, so wire-level prefix attribution is unambiguous.
	prefixes = netutil.ExcludeCovered(prefixes)
	sel := seeds.Select(cat, prefixes, func(a uint32, p simnet.Proto) *simnet.Host {
		return w.Responder(a, p, 0)
	}, 3)
	// Announce the measurement prefix (June-style).
	eco.Net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
	eco.Net.Originate(eco.Internet2.Router, eco.MeasPrefix)
	eco.Net.RunToQuiescence()
	return eco, w, sel, NewProber(w)
}

// records expands a round's records through its cursor.
func records(r *Round) []Record {
	out := make([]Record, 0, r.Len())
	for c := r.Cursor(); c.Next(); {
		out = append(out, *c.Record())
	}
	return out
}

func TestRunRound(t *testing.T) {
	eco, w, sel, pr := setup(t)
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)

	round := pr.Run("0-0", 1000, sel)
	if round.Config != "0-0" || round.Start != 1000 {
		t.Fatalf("round meta wrong: %+v", round)
	}
	recs := records(round)
	if len(recs) != sel.Stats.ResponsiveTargets {
		t.Errorf("probed %d, want %d", len(recs), sel.Stats.ResponsiveTargets)
	}
	responded := 0
	for _, rec := range recs {
		if rec.SentAt < round.Start || rec.SentAt > round.End {
			t.Fatalf("record time %d outside round [%d,%d]", rec.SentAt, round.Start, round.End)
		}
		if rec.Responded {
			responded++
			if rec.VLAN == simnet.VLANNone {
				t.Fatal("responded without a VLAN")
			}
			if rec.RTTms <= 0 {
				t.Fatal("responded without an RTT")
			}
		}
	}
	if responded < len(recs)*9/10 {
		t.Errorf("only %d/%d probes answered", responded, len(recs))
	}
	// Pacing: ~100pps means duration ≈ records/100 seconds.
	wantDur := int64(len(recs))/100 + 1
	if got := int64(round.Duration()); got < wantDur || got > wantDur+2 {
		t.Errorf("round duration %d, want ~%d", got, wantDur)
	}
}

// TestRunWorkersDeepEqual: shards write straight into the round's one
// slot slice, so the round must come out the same at any width —
// and, under -race, the shards' slots must be disjoint.
func TestRunWorkersDeepEqual(t *testing.T) {
	eco, w, sel, pr := setup(t)
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
	pr.Retry = DefaultRetryPolicy()
	if len(sel.Prefixes) <= probeShardSize {
		t.Fatalf("%d prefixes fit one shard; the test needs several", len(sel.Prefixes))
	}
	pr.Workers = 1
	want := pr.Run("0-0", 1000, sel)
	for _, workers := range []int{2, 8} {
		pr.Workers = workers
		if got := pr.Run("0-0", 1000, sel); !reflect.DeepEqual(got, want) {
			t.Errorf("round at %d workers differs from the round at 1", workers)
		}
	}
}

// TestRunAllocsIndependentOfTargets: a round allocates a fixed number
// of times per round (its slots, the plan when the selection is new,
// the catchment view)
// and per shard (its loss RNG, which each prefix reseeds), never per
// prefix or per record: not when every probe is lost, and not when
// every probe is answered, since an answer is a lookup in the round's
// view of the host the target carries.
func TestRunAllocsIndependentOfTargets(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss float64
	}{{"lost", 1}, {"answered", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simnet.DefaultWorldConfig()
			cfg.ProbeLossProb = tc.loss
			eco, w, three, pr := setupWorld(t, cfg)
			w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
			one := &seeds.Selection{Prefixes: make([]seeds.PrefixTargets, len(three.Prefixes))}
			records := 0
			for i, pt := range three.Prefixes {
				one.Prefixes[i] = seeds.PrefixTargets{Prefix: pt.Prefix, Targets: pt.Targets[:1]}
				records += len(pt.Targets)
			}
			if records < 2*len(one.Prefixes) {
				t.Fatalf("%d targets over %d prefixes: too few to show growth", records, len(one.Prefixes))
			}
			pr.Workers = 1
			if tc.loss == 0 {
				if round := pr.Run("0-0", 1000, three); round.Responded() < round.Len()*9/10 {
					t.Fatalf("only %d/%d probes answered", round.Responded(), round.Len())
				}
			}
			allocs := func(sel *seeds.Selection) float64 {
				return testing.AllocsPerRun(10, func() { pr.Run("0-0", 1000, sel) })
			}
			if a1, a3 := allocs(one), allocs(three); a3 != a1 {
				t.Errorf("Run allocated %v times for %d records, %v for %d: it grows with targets per prefix",
					a3, records, a1, len(one.Prefixes))
			}
			// One shard each: a round of 1 prefix and one of a full
			// shard's 64 allocate alike.
			if len(three.Prefixes) < probeShardSize {
				t.Fatalf("%d prefixes, fewer than a shard", len(three.Prefixes))
			}
			first := &seeds.Selection{Prefixes: three.Prefixes[:1]}
			shard := &seeds.Selection{Prefixes: three.Prefixes[:probeShardSize]}
			if a1, a64 := allocs(first), allocs(shard); a64 != a1 {
				t.Errorf("Run allocated %v times for 1 prefix, %v for %d in the same one shard: it grows with prefixes",
					a1, a64, probeShardSize)
			}
		})
	}
}

// TestBrownoutFollowsTargetHost: a probe's brownout is keyed on the
// prefix of the host its target carries, not on the selection prefix
// the target is listed under. A hand-built selection lists one host
// under another prefix; a total brownout of the host's prefix silences
// it, and one of the listing prefix does not.
func TestBrownoutFollowsTargetHost(t *testing.T) {
	eco, w, sel, pr := setup(t)
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
	base := pr.Run("0-0", 1000, sel)
	// The first prefix whose first target answers, and another prefix
	// to list that target under.
	var home seeds.PrefixTargets
	for i, first := 0, 0; i < len(sel.Prefixes) && home.Targets == nil; i++ {
		if base.Record(first).Responded {
			home = sel.Prefixes[i]
		}
		first += len(sel.Prefixes[i].Targets)
	}
	if home.Targets == nil {
		t.Fatal("no prefix answered")
	}
	tgt := home.Targets[0]
	other := sel.Prefixes[0].Prefix
	if other == home.Prefix {
		other = sel.Prefixes[1].Prefix
	}
	if tgt.Host.Prefix != home.Prefix {
		t.Fatalf("target %d keeps a host in %s, selected under %s", tgt.Addr, tgt.Host.Prefix, home.Prefix)
	}
	moved := &seeds.Selection{Prefixes: []seeds.PrefixTargets{{Prefix: other, Targets: []seeds.Target{tgt}}}}

	probe := func() Record {
		recs := records(pr.Run("0-0", 1000, moved))
		if len(recs) != 1 || recs[0].Prefix != other || recs[0].Dst != tgt.Addr {
			t.Fatalf("round %+v, want one record for %d listed under %s", recs, tgt.Addr, other)
		}
		return recs[0]
	}
	if !probe().Responded {
		t.Fatal("the moved target does not answer without brownouts")
	}
	w.AddBrownout([]netutil.Prefix{other}, 0, 1<<40, 1, 3)
	if !probe().Responded {
		t.Error("a brownout of the listing prefix silenced a host outside it")
	}
	w.ClearBrownouts()
	w.AddBrownout([]netutil.Prefix{home.Prefix}, 0, 1<<40, 1, 3)
	if probe().Responded {
		t.Error("a total brownout of the host's own prefix let its probe through")
	}
}

// TestFillReusesRecords: a round filled into a buffer that held an
// earlier round equals a fresh Run of the same round, and takes its
// slots in place.
func TestFillReusesRecords(t *testing.T) {
	eco, w, sel, pr := setup(t)
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
	pr.Retry = DefaultRetryPolicy()
	var buf Round
	pr.Fill(&buf, "4-0", 50, sel)
	storage := &buf.slots[0]
	pr.Fill(&buf, "0-0", 1000, sel)
	if want := pr.Run("0-0", 1000, sel); !reflect.DeepEqual(&buf, want) {
		t.Error("a round filled into a reused buffer differs from a fresh Run")
	}
	if &buf.slots[0] != storage {
		t.Error("Fill reallocated slots that fit the buffer")
	}
}

// TestRoundBytesPerTarget is the prober layout's retained-bytes guard:
// a round at the paper's grammar with its populations divided by four
// (the benchmark's survey_paper size) holds at most 4 bytes per target,
// its slots and escape list counted by capacity. The plan it shares
// with every round of its selection is not its own.
func TestRoundBytesPerTarget(t *testing.T) {
	c := topo.DefaultConfig()
	c.MembersUS /= 4
	c.MembersIntl /= 4
	c.NIKSCustomers /= 4
	c.ExtraCollectorFeeds /= 4
	eco, w, sel, pr := buildWorld(c, simnet.DefaultWorldConfig())
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
	round := pr.Run("0-0", 1000, sel)
	if round.Responded() < round.Len()/2 {
		t.Fatalf("only %d of %d probes answered", round.Responded(), round.Len())
	}
	held := cap(round.slots)*int(unsafe.Sizeof(round.slots[0])) + cap(round.escapes)*int(unsafe.Sizeof(escape{}))
	perTarget := float64(held) / float64(round.Len())
	t.Logf("%d targets, %d bytes held: %.2f B per target (a Record is %d B)",
		round.Len(), held, perTarget, unsafe.Sizeof(Record{}))
	if perTarget > 4 {
		t.Errorf("a round holds %.2f B per target, want <= 4", perTarget)
	}
}

// TestRetriesEscape: under total loss, a policy of more attempts than
// the slot's retries field holds, with no budget, gives every record
// more retries than fit, so every slot escapes. The records rebuild
// with their full counts through Record and a Cursor alike, at any
// worker count (the shards' escapes merge in slot order).
func TestRetriesEscape(t *testing.T) {
	cfg := simnet.DefaultWorldConfig()
	cfg.ProbeLossProb = 1
	_, _, sel, pr := setupWorld(t, cfg)
	const attempts = maxSlotRetries + 5
	pr.Retry = RetryPolicy{MaxAttempts: attempts, BaseBackoff: 1, MaxBackoff: 4}
	pr.Workers = 1
	round := pr.Run("0-0", 1000, sel)
	if len(round.escapes) != round.Len() {
		t.Fatalf("%d escapes for %d slots, want every slot", len(round.escapes), round.Len())
	}
	for i, rec := range records(round) {
		if rec.Retries != attempts-1 || rec.Responded {
			t.Fatalf("record %d: %+v, want %d retries and no reply", i, rec, attempts-1)
		}
		if got := round.Record(i); got != rec {
			t.Fatalf("record %d: Record %+v, cursor %+v", i, got, rec)
		}
	}
	pr.Workers = 4
	if again := pr.Run("0-0", 1000, sel); !reflect.DeepEqual(again, round) {
		t.Error("the round at 4 workers differs from the round at 1")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	eco, w, sel, pr := setup(t)
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
	round := pr.Run("2-0", 2000, sel)

	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf, round); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"config":"2-0"`) || !strings.Contains(out, `"src":"163.253.63.63"`) {
		t.Errorf("JSON missing fields:\n%s", out[:200])
	}

	var kept []netutil.Prefix
	for _, pi := range eco.Prefixes {
		kept = append(kept, pi.Prefix)
	}
	kept = netutil.ExcludeCovered(kept)
	rounds, err := ReadJSON(&buf, func(addr uint32) (netutil.Prefix, bool) {
		// Longest-prefix match over the probed (covered-excluded) list.
		var best netutil.Prefix
		found := false
		for _, p := range kept {
			if p.Contains(addr) && (!found || p.Bits() > best.Bits()) {
				best, found = p, true
			}
		}
		return best, found
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 || rounds[0].Config != "2-0" {
		t.Fatalf("rounds = %+v", rounds)
	}
	if len(rounds[0].Records) != round.Len() {
		t.Fatalf("records %d vs %d", len(rounds[0].Records), round.Len())
	}
	for i, got := range rounds[0].Records {
		want := round.Record(i)
		if got.Dst != want.Dst || got.Proto != want.Proto || got.Responded != want.Responded ||
			got.VLAN != want.VLAN || got.Prefix != want.Prefix {
			t.Errorf("record %d: %+v vs %+v", i, got, want)
		}
	}
}

// A zero-value RetryPolicy must leave Run's output bit-for-bit
// identical to the historical single-shot prober.
func TestRetryZeroPolicyIsNoOp(t *testing.T) {
	eco, w, sel, pr := setup(t)
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)

	base := pr.Run("0-0", 1000, sel)

	eco2, w2, sel2, pr2 := setup(t)
	w2.SetTerminals(eco2.Internet2.Router, eco2.MeasCommodity.Router)
	pr2.Retry = RetryPolicy{} // explicit zero value
	again := pr2.Run("0-0", 1000, sel2)

	if base.End != again.End || base.Len() != again.Len() {
		t.Fatalf("round shape diverged: %+v vs %+v", base, again)
	}
	for i := 0; i < base.Len(); i++ {
		if base.Record(i) != again.Record(i) {
			t.Fatalf("record %d diverged: %+v vs %+v", i, base.Record(i), again.Record(i))
		}
	}
}

// Under heavy i.i.d. loss, retries must recover a visible share of the
// unanswered probes and stamp their records with the attempt count.
func TestRetryRecoversLoss(t *testing.T) {
	lossy := func(retry RetryPolicy) *Round {
		eco := topo.Build(topo.SmallConfig())
		cfg := simnet.DefaultWorldConfig()
		cfg.ProbeLossProb = 0.4
		w := simnet.BuildWorld(eco, cfg)
		cat := seeds.BuildCatalog(eco, w, seeds.DefaultCatalogConfig())
		var prefixes []netutil.Prefix
		for _, pi := range eco.Prefixes {
			prefixes = append(prefixes, pi.Prefix)
		}
		prefixes = netutil.ExcludeCovered(prefixes)
		sel := seeds.Select(cat, prefixes, func(a uint32, p simnet.Proto) *simnet.Host {
			return w.Responder(a, p, 0)
		}, 3)
		eco.Net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
		eco.Net.Originate(eco.Internet2.Router, eco.MeasPrefix)
		eco.Net.RunToQuiescence()
		w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)
		pr := NewProber(w)
		pr.Retry = retry
		return pr.Run("0-0", 1000, sel)
	}

	count := func(r *Round) (responded, retried int) {
		for _, rec := range records(r) {
			if rec.Responded {
				responded++
			}
			if rec.Retries > 0 {
				retried++
			}
		}
		return
	}

	noRetry := lossy(RetryPolicy{})
	withRetry := lossy(DefaultRetryPolicy())
	gotBase, retriedBase := count(noRetry)
	gotRetry, retried := count(withRetry)
	if retriedBase != 0 {
		t.Errorf("zero policy recorded %d retried probes", retriedBase)
	}
	if retried == 0 {
		t.Error("retry policy under 40%% loss never retried")
	}
	if gotRetry <= gotBase {
		t.Errorf("retries did not improve response rate: %d vs %d of %d",
			gotRetry, gotBase, withRetry.Len())
	}
}

// Retries past the round budget must be skipped. With total loss, the
// retry count per record is set purely by policy arithmetic.
func TestRetryRespectsBudget(t *testing.T) {
	run := func(retry RetryPolicy) *Round {
		eco := topo.Build(topo.SmallConfig())
		cfg := simnet.DefaultWorldConfig()
		cfg.ProbeLossProb = 1.0 // nothing ever answers
		w := simnet.BuildWorld(eco, cfg)
		cat := seeds.BuildCatalog(eco, w, seeds.DefaultCatalogConfig())
		var prefixes []netutil.Prefix
		for _, pi := range eco.Prefixes {
			prefixes = append(prefixes, pi.Prefix)
		}
		prefixes = netutil.ExcludeCovered(prefixes)
		// Selection responsiveness check bypasses World.Probe, so use
		// loss-free responsiveness to still get targets.
		sel := seeds.Select(cat, prefixes, func(a uint32, p simnet.Proto) *simnet.Host {
			return w.Responder(a, p, 0)
		}, 1)
		pr := NewProber(w)
		pr.Retry = retry
		return pr.Run("0-0", 1000, sel)
	}

	// First retry at +100 exceeds the 50 s budget: no retries at all.
	tight := run(RetryPolicy{MaxAttempts: 5, BaseBackoff: 100, MaxBackoff: 400, Budget: 50})
	for _, rec := range records(tight) {
		if rec.Retries != 0 {
			t.Fatalf("retry sent past budget: %+v", rec)
		}
	}
	// Generous budget: every record burns all MaxAttempts-1 retries.
	loose := run(RetryPolicy{MaxAttempts: 3, BaseBackoff: 2, MaxBackoff: 30, Budget: 600})
	if loose.Len() == 0 {
		t.Fatal("no records probed")
	}
	for _, rec := range records(loose) {
		if rec.Retries != 2 {
			t.Fatalf("want 2 retries under total loss, got %+v", rec)
		}
	}
}

func TestReadJSONHardening(t *testing.T) {
	input := strings.Join([]string{
		`{"dst":"10.0.0.1","config":"4-0","start_sec":900,"responded":true,"rtt":-3.5,"retries":-2}`,
		`{"dst":"10.0.0.1","config":"4-0","start_sec":950,"responded":false}`,          // duplicate (dst, config): dropped
		`{"dst":"10.0.0.2","config":"4-0","start_sec":100,"responded":true,"rtt":9.5}`, // out of order: Start must drop to 100
	}, "\n")
	rounds, err := ReadJSON(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("rounds = %+v", rounds)
	}
	rd := rounds[0]
	if len(rd.Records) != 2 {
		t.Fatalf("duplicate not dropped: %d records", len(rd.Records))
	}
	if rd.Records[0].RTTms != 0 {
		t.Errorf("negative RTT not zeroed: %v", rd.Records[0].RTTms)
	}
	if rd.Records[0].Retries != 0 {
		t.Errorf("negative retries not clamped: %v", rd.Records[0].Retries)
	}
	if !rd.Records[0].Responded {
		t.Error("keep-first dedupe kept the wrong record")
	}
	if rd.Start != 100 || rd.End != 900 {
		t.Errorf("round window [%d,%d], want [100,900]", rd.Start, rd.End)
	}
}

func TestReadJSONBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"dst":"not-an-ip"}`), nil); err == nil {
		t.Error("bad address should error")
	}
	if _, err := ReadJSON(strings.NewReader(`{`), nil); err == nil {
		t.Error("truncated JSON should error")
	}
	rounds, err := ReadJSON(strings.NewReader(""), nil)
	if err != nil || len(rounds) != 0 {
		t.Errorf("empty input: %v, %v", rounds, err)
	}
}

func TestMethodMapping(t *testing.T) {
	for _, p := range []simnet.Proto{simnet.ICMP, simnet.TCP, simnet.UDP} {
		if protoOf(methodOf(p)) != p {
			t.Errorf("method mapping not invertible for %v", p)
		}
	}
}
