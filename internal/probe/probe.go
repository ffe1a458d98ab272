// Package probe is the reproduction's scamper: it paces benign
// ICMP-echo / TCP SYN / UDP probes at a configured rate from the
// measurement host, records which VLAN interface each response arrived
// on (the IP_PKTINFO mechanism of §3.1), and serializes rounds as
// scamper-module-style JSON. A probe decides only whether a reply came
// back, on which VLAN, after how many retries and over how many hops:
// a round keeps those two bytes per probe and rebuilds the rest of each
// record from the target selection and its own start (Round).
package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/seeds"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Record is the outcome of one probe.
type Record struct {
	Prefix    netutil.Prefix
	Dst       uint32
	Proto     simnet.Proto
	Port      uint16
	SentAt    bgp.Time
	Responded bool
	VLAN      simnet.VLAN
	RTTms     float64
	// Retries is how many extra attempts the prober made after the
	// first probe went unanswered (0 when retries are disabled or the
	// first probe responded).
	Retries int
}

// Round is one active-probing window under a fixed BGP configuration.
// It holds its records in one of two layouts, and Plan tells them
// apart:
//
//   - The prober layout (Fill; Plan is non-nil). A record is almost
//     entirely derived: its prefix, address, protocol and port are the
//     selection's target at its slot, its send time is Start plus the
//     slot over the pacing rate, and its RTT follows from its hop count
//     and address (rttMS). So the round keeps the selection's Plan
//     (shared, not copied), Start, the rate, and one uint16 slot per
//     target holding what the probe decided: responded, VLAN, retries
//     and hops. A (retries, hops) pair too wide for its bit fields sets
//     the slot's escape bit and is kept whole in a side list sorted by
//     slot, so nothing is ever truncated.
//   - The record layout (Records is set, Plan is nil): rounds read back
//     from JSON (ReadJSON) or decoded from a checkpoint.
//
// Len, Record, Outcome and a Cursor read either layout; a prober-made
// round never holds its expanded records.
type Round struct {
	Config string // prepend configuration label, e.g. "4-0"
	Start  bgp.Time
	End    bgp.Time
	// Records is the record layout; nil in a prober-made round.
	Records []Record

	plan    *Plan
	rate    int
	slots   []uint16
	escapes []escape
}

// Plan is one selection's probing order: the selection and where each
// prefix's run of slots begins in canonical target order. A Prober
// computes it once per selection and every round it makes from that
// selection shares it; a selection is not modified once probed.
type Plan struct {
	sel *seeds.Selection
	// offsets[k] is the slot of sel.Prefixes[k]'s first target;
	// offsets[len(sel.Prefixes)] is the round length.
	offsets []int32
}

func newPlan(sel *seeds.Selection) *Plan {
	offsets := make([]int32, len(sel.Prefixes)+1)
	for k, pt := range sel.Prefixes {
		offsets[k+1] = offsets[k] + int32(len(pt.Targets))
	}
	return &Plan{sel: sel, offsets: offsets}
}

// Selection returns the selection the plan orders.
func (p *Plan) Selection() *seeds.Selection { return p.sel }

// Span returns the slots [lo, hi) of the selection's k-th prefix: its
// targets, in selection order.
func (p *Plan) Span(k int) (lo, hi int) { return int(p.offsets[k]), int(p.offsets[k+1]) }

// The slot of one prober-made record, from the low bit up: responded
// (1 bit), VLAN (2), retries (3), hops (9) and the escape bit.
const (
	slotResponded    = 1 << 0
	slotVLANShift    = 1
	slotRetriesShift = 3
	slotHopsShift    = 6
	slotEscape       = 1 << 15

	maxSlotVLAN    = 1<<2 - 1
	maxSlotRetries = 1<<3 - 1
	maxSlotHops    = 1<<9 - 1
)

// escape is the whole (retries, hops) pair of a slot whose values
// overflow their bit fields.
type escape struct {
	slot, retries, hops int
}

// outcome is what one probe decided.
type outcome struct {
	responded bool
	vlan      simnet.VLAN
	retries   int
	hops      int // of the reply's path; 0 without a reply
}

// pack encodes o as a slot. It reports false when o's retries or hops
// overflow their fields: the slot then carries the escape bit in their
// place and the caller lists o in the round's escapes.
func (o outcome) pack() (uint16, bool) {
	s := uint16(o.vlan&maxSlotVLAN) << slotVLANShift
	if o.responded {
		s |= slotResponded
	}
	if o.retries < 0 || o.retries > maxSlotRetries || o.hops < 0 || o.hops > maxSlotHops {
		return s | slotEscape, false
	}
	return s | uint16(o.retries)<<slotRetriesShift | uint16(o.hops)<<slotHopsShift, true
}

// put writes o into slot i of slots, appending its escape to escapes
// if it needs one, and returns escapes.
func put(slots []uint16, escapes []escape, i int, o outcome) []escape {
	s, fits := o.pack()
	slots[i] = s
	if !fits {
		escapes = append(escapes, escape{slot: i, retries: o.retries, hops: o.hops})
	}
	return escapes
}

// rttMS is a reply's synthetic RTT: per-AS-hop serialization plus a
// small deterministic spread; flavour only. The probe path and
// Round.Record both call it, so every value is bit-identical.
func rttMS(hops int, dst uint32) float64 {
	return 4.0 + 7.5*float64(hops) + float64(dst%97)/10
}

// Plan returns the round's probing plan, nil for a round in the
// record layout.
func (r *Round) Plan() *Plan { return r.plan }

// Len is the round's record count.
func (r *Round) Len() int {
	if r.plan == nil {
		return len(r.Records)
	}
	return len(r.slots)
}

// Outcome returns record i's Responded and VLAN, what a VLAN
// observation reads, without rebuilding the record.
func (r *Round) Outcome(i int) (responded bool, vlan simnet.VLAN) {
	if r.plan == nil {
		return r.Records[i].Responded, r.Records[i].VLAN
	}
	s := r.slots[i]
	return s&slotResponded != 0, simnet.VLAN(s >> slotVLANShift & maxSlotVLAN)
}

// Record returns record i. In the prober layout it is rebuilt from the
// slot, which costs a search for the slot's prefix; sequential readers
// walk a Cursor instead.
func (r *Round) Record(i int) Record {
	if r.plan == nil {
		return r.Records[i]
	}
	offs := r.plan.offsets
	k := sort.Search(len(offs)-1, func(k int) bool { return int(offs[k+1]) > i })
	e := sort.Search(len(r.escapes), func(e int) bool { return r.escapes[e].slot >= i })
	return r.expand(i, k, e)
}

// expand rebuilds prober-layout record i, which lies in the run of the
// plan's prefix k; e is its entry in the escape list if its slot
// escapes.
func (r *Round) expand(i, k, e int) Record {
	pt := &r.plan.sel.Prefixes[k]
	tgt := &pt.Targets[i-int(r.plan.offsets[k])]
	s := r.slots[i]
	retries, hops := int(s>>slotRetriesShift&maxSlotRetries), int(s>>slotHopsShift&maxSlotHops)
	if s&slotEscape != 0 {
		retries, hops = r.escapes[e].retries, r.escapes[e].hops
	}
	rec := Record{
		Prefix:    pt.Prefix,
		Dst:       tgt.Addr,
		Proto:     tgt.Proto,
		Port:      tgt.Port,
		SentAt:    r.Start + bgp.Time(i/r.rate),
		Responded: s&slotResponded != 0,
		VLAN:      simnet.VLAN(s >> slotVLANShift & maxSlotVLAN),
		Retries:   retries,
	}
	if rec.Responded {
		rec.RTTms = rttMS(hops, tgt.Addr)
	}
	return rec
}

// Cursor walks a round's records in order. In the prober layout it
// rebuilds each record as it goes, stepping through the plan's prefix
// runs and the escape list beside it, so a whole walk makes no search:
//
//	for c := rd.Cursor(); c.Next(); {
//		rec := c.Record()
//		...
//	}
type Cursor struct {
	r   *Round
	i   int // the next record's position
	k   int // the plan's prefix whose run holds position i
	e   int // the first escape at or after position i
	rec Record
}

// Cursor returns a cursor before the round's first record.
func (r *Round) Cursor() Cursor { return Cursor{r: r} }

// Next advances to the next record and reports whether there is one.
func (c *Cursor) Next() bool {
	r := c.r
	if c.i >= r.Len() {
		return false
	}
	if r.plan == nil {
		c.rec = r.Records[c.i]
	} else {
		for int(r.plan.offsets[c.k+1]) <= c.i {
			c.k++
		}
		c.rec = r.expand(c.i, c.k, c.e)
		if r.slots[c.i]&slotEscape != 0 {
			c.e++
		}
	}
	c.i++
	return true
}

// Record is the current record; the cursor rewrites it on Next.
func (c *Cursor) Record() *Record { return &c.rec }

// RetryPolicy caps re-probing of unresponsive targets inside a round.
// The zero value disables retries entirely, leaving Run's probe and
// pacing sequence exactly as without the policy.
type RetryPolicy struct {
	// MaxAttempts is the total tries per target, first probe included;
	// values <= 1 disable retries.
	MaxAttempts int
	// BaseBackoff is the wait (virtual seconds) before the first
	// retry; each further retry doubles it, capped at MaxBackoff.
	BaseBackoff bgp.Time
	// MaxBackoff caps the per-retry backoff growth.
	MaxBackoff bgp.Time
	// Budget bounds how far past a target's first probe its last retry
	// may be sent, keeping the round inside its time budget.
	Budget bgp.Time
}

// DefaultRetryPolicy is the resilience layer's configuration: up to two
// retries with 2 s → 4 s backoff, all within two minutes of the first
// probe — small against the hourly round spacing.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 2, MaxBackoff: 30, Budget: 120}
}

// Prober paces probes through a World.
type Prober struct {
	World *simnet.World
	// PPS is the probing rate; the paper used 100 pps (§3.3, Ethics).
	PPS int
	// SrcAddr labels the JSON output (163.253.63.63 in Figure 2).
	SrcAddr string
	// Retry re-probes unanswered targets with capped exponential
	// backoff. The zero value keeps the historical single-shot
	// behaviour bit-for-bit.
	Retry RetryPolicy
	// Workers bounds the shard workers Run probes with; <= 0 means
	// GOMAXPROCS. Any value yields byte-identical rounds: prefixes are
	// sharded in canonical order, every prefix draws loss from its own
	// (round, prefix) stream — each shard's one RNG is reseeded to it
	// (simnet.World.LossStream) — pacing slots are assigned by target
	// index, and shard results merge in shard order.
	Workers int

	// metrics holds the pre-resolved instrumentation counters; the
	// zero value (nil counters) is the free disabled path.
	metrics proberMetrics
	// registry backs shard-timing records for the run manifest; nil
	// skips them.
	registry *telemetry.Registry
	// plan is the last selection's probing plan, which every round
	// from that selection shares.
	plan *Plan
}

// proberMetrics caches the prober's counters so Run pays one nil
// check per probe when telemetry is disabled.
type proberMetrics struct {
	sent           *telemetry.Counter
	retries        *telemetry.Counter
	backoffSeconds *telemetry.Counter
	respRE         *telemetry.Counter
	respCommodity  *telemetry.Counter
	unanswered     *telemetry.Counter
	rtt            *telemetry.Histogram
}

// SetMetrics wires the prober to the registry. A nil registry
// disables instrumentation. core.Survey.SetMetrics calls it for every
// survey a pipeline builds.
func (pr *Prober) SetMetrics(r *telemetry.Registry) {
	pr.registry = r
	pr.metrics = proberMetrics{
		sent:           r.Counter("probe_probes_sent_total"),
		retries:        r.Counter("probe_retries_total"),
		backoffSeconds: r.Counter("probe_backoff_seconds_total"),
		respRE:         r.Counter(telemetry.Label("probe_responses_total", "vlan", "re")),
		respCommodity:  r.Counter(telemetry.Label("probe_responses_total", "vlan", "commodity")),
		unanswered:     r.Counter("probe_unanswered_total"),
		rtt:            r.Histogram("probe_rtt_ms", telemetry.DefaultLatencyBounds...),
	}
}

// NewProber returns a prober with the paper's configuration.
func NewProber(w *simnet.World) *Prober {
	return &Prober{World: w, PPS: 100, SrcAddr: "163.253.63.63"}
}

// probeShardSize is the number of prefixes per shard when Run fans
// out. It is a fixed constant — never derived from the worker count —
// so the shard set, and with it every per-shard artifact, is identical
// whether one worker or eight execute it.
const probeShardSize = 64

// Run probes every selected target once, pacing at PPS, starting at
// virtual time start, and returns the round in slots of its own. It is
// Fill into a new Round.
func (pr *Prober) Run(config string, start bgp.Time, sel *seeds.Selection) *Round {
	round := &Round{}
	pr.Fill(round, config, start, sel)
	return round
}

// shardResult is what one probe shard returns besides its slots: its
// retries and the escapes of its slots, in slot order.
type shardResult struct {
	retries int
	escapes []escape
}

// Fill probes every selected target once, pacing at PPS, starting at
// virtual time start, and writes the round into round in the prober
// layout (see Round), reusing its slots' storage when it is large
// enough: every slot is rewritten, so a caller that probes round after
// round and keeps no records (the optimizer's census) allocates them
// once. Targets are visited, and their slots written, in the
// selection's canonical prefix order: the slots of sel.Prefixes[k] are
// one run, in target order, right after those of sel.Prefixes[k-1]
// (Plan.Span). The selection's Plan is computed on its first round and
// shared by every later one.
//
// The prefix list is sharded (probeShardSize prefixes per shard) and
// probed by up to Workers goroutines. Three properties make the result
// independent of the worker count: each target's pacing slot is its
// index in the canonical target order (not a shared sent counter), each
// prefix draws probe loss from its own (round, prefix) stream — a
// shard holds one RNG and points it at each prefix's stream in turn
// (simnet.World.LossStream) — and that same index is the target's slot
// in the round, so shards write disjoint ranges; only the rare escapes
// are merged, in shard order, which is slot order. The BGP network is
// static while a round runs, so Fill fills the round's catchment of the
// measurement prefix once, before sharding, and every probe is a
// lookup in it that the shards share and only read; each target
// carries the host seed selection resolved, so a probe looks up no
// address either. The telemetry counters and the RTT histogram are fed
// as each probe is made.
func (pr *Prober) Fill(round *Round, config string, start bgp.Time, sel *seeds.Selection) {
	rate := pr.PPS
	if rate <= 0 {
		rate = 100
	}
	if pr.plan == nil || pr.plan.sel != sel {
		pr.plan = newPlan(sel)
	}
	plan := pr.plan
	prefixes := sel.Prefixes
	n := int(plan.offsets[len(prefixes)])
	slots := round.slots
	if cap(slots) >= n {
		slots = slots[:n]
	} else {
		slots = make([]uint16, n)
	}
	escapes := round.escapes[:0]
	*round = Round{Config: config, Start: start, plan: plan, rate: rate, slots: slots}
	view := pr.World.Net.Catchment(pr.World.MeasPrefix)

	shards, timings := parallel.CollectTimed(len(prefixes), probeShardSize, pr.Workers,
		func(s parallel.Shard) shardResult {
			var out shardResult
			rng := parallel.Rand(0, 0) // pointed at each prefix's stream below
			for k := s.Lo; k < s.Hi; k++ {
				pt := &prefixes[k]
				pr.World.LossStream(rng, start, pt.Prefix)
				base := int(plan.offsets[k])
				for j := range pt.Targets {
					slot := base + j
					o := pr.probeTarget(view, &pt.Targets[j], start+bgp.Time(slot/rate), rng)
					out.retries += o.retries
					out.escapes = put(slots, out.escapes, slot, o)
				}
			}
			return out
		})

	totalSent := n
	for _, sh := range shards {
		totalSent += sh.retries
		escapes = append(escapes, sh.escapes...)
	}
	round.escapes = escapes
	for _, t := range timings {
		pr.registry.AddShardTiming("probe", t.Shard, t.Items, t.Duration)
	}
	round.End = start + bgp.Time(totalSent/rate) + 1
}

// probeTarget probes one target at time at through the round's
// catchment view, retrying per the policy with draws from the prefix's
// loss stream, and returns what the probe decided.
func (pr *Prober) probeTarget(view *bgp.Catchment, tgt *seeds.Target, at bgp.Time, rng *rand.Rand) outcome {
	res := pr.World.ProbeRand(view, tgt.Host, tgt.Proto, at, rng)
	pr.metrics.sent.Inc()
	retries := 0
	if !res.Responded && pr.Retry.MaxAttempts > 1 {
		backoff := pr.Retry.BaseBackoff
		if backoff <= 0 {
			backoff = 1
		}
		when := at
		for a := 1; a < pr.Retry.MaxAttempts && !res.Responded; a++ {
			when += backoff
			if pr.Retry.Budget > 0 && when > at+pr.Retry.Budget {
				break
			}
			res = pr.World.ProbeRand(view, tgt.Host, tgt.Proto, when, rng)
			retries++
			pr.metrics.sent.Inc()
			pr.metrics.retries.Inc()
			pr.metrics.backoffSeconds.Add(int64(backoff))
			backoff *= 2
			if pr.Retry.MaxBackoff > 0 && backoff > pr.Retry.MaxBackoff {
				backoff = pr.Retry.MaxBackoff
			}
		}
	}
	o := outcome{responded: res.Responded, vlan: res.VLAN, retries: retries}
	if res.Responded {
		o.hops = res.Hops
		switch res.VLAN {
		case simnet.VLANRE:
			pr.metrics.respRE.Inc()
		case simnet.VLANCommodity:
			pr.metrics.respCommodity.Inc()
		}
		pr.metrics.rtt.Observe(rttMS(res.Hops, tgt.Addr))
	} else {
		pr.metrics.unanswered.Inc()
	}
	return o
}

// Duration returns the round's wall-clock length in virtual seconds.
func (r *Round) Duration() bgp.Time { return r.End - r.Start }

// Responded counts the round's probes that drew a response.
func (r *Round) Responded() int {
	n := 0
	if r.plan != nil {
		for _, s := range r.slots {
			n += int(s & slotResponded)
		}
		return n
	}
	for i := range r.Records {
		if r.Records[i].Responded {
			n++
		}
	}
	return n
}

// jsonProbe is the scamper-like wire format (§3.1: "produce JSON
// results").
type jsonProbe struct {
	Type      string  `json:"type"`
	Method    string  `json:"method"`
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	Dport     uint16  `json:"dport,omitempty"`
	Config    string  `json:"config"`
	StartSec  int64   `json:"start_sec"`
	Responded bool    `json:"responded"`
	RxIfname  string  `json:"rx_ifname,omitempty"`
	RTT       float64 `json:"rtt,omitempty"`
	Retries   int     `json:"retries,omitempty"`
}

func methodOf(p simnet.Proto) string {
	switch p {
	case simnet.ICMP:
		return "icmp-echo"
	case simnet.TCP:
		return "tcp-syn"
	default:
		return "udp"
	}
}

// WriteJSON emits one JSON object per probe, newline-delimited, the
// shape the public measurement tooling produces.
func (pr *Prober) WriteJSON(w io.Writer, r *Round) error {
	enc := json.NewEncoder(w)
	for c := r.Cursor(); c.Next(); {
		rec := c.Record()
		jp := jsonProbe{
			Type:      "ping",
			Method:    methodOf(rec.Proto),
			Src:       pr.SrcAddr,
			Dst:       netutil.AddrString(rec.Dst),
			Dport:     rec.Port,
			Config:    r.Config,
			StartSec:  int64(rec.SentAt),
			Responded: rec.Responded,
			RxIfname:  rec.VLAN.Interface(),
			RTT:       rec.RTTms,
			Retries:   rec.Retries,
		}
		if err := enc.Encode(jp); err != nil {
			return fmt.Errorf("probe: encoding %s: %w", jp.Dst, err)
		}
	}
	return nil
}

// ReadJSON parses newline-delimited probe JSON back into records,
// recovering config labels; the inverse of WriteJSON modulo prefix
// attribution (restored via the supplied prefix resolver).
//
// The reader is hardened against hostile or corrupted archives:
// negative and non-finite RTTs are zeroed, repeated (config, dst)
// records keep only the first occurrence, retry counts are clamped to
// non-negative, and round Start/End are rebuilt as the min/max probe
// time so out-of-order record streams still yield coherent windows.
func ReadJSON(r io.Reader, resolve func(addr uint32) (netutil.Prefix, bool)) ([]Round, error) {
	type dupKey struct {
		config string
		dst    uint32
	}
	dec := json.NewDecoder(r)
	byConfig := make(map[string]*Round)
	seen := make(map[dupKey]bool)
	var order []string
	for dec.More() {
		var jp jsonProbe
		if err := dec.Decode(&jp); err != nil {
			return nil, fmt.Errorf("probe: decode: %w", err)
		}
		addr, err := parseAddr(jp.Dst)
		if err != nil {
			return nil, err
		}
		if k := (dupKey{jp.Config, addr}); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		rd := byConfig[jp.Config]
		if rd == nil {
			rd = &Round{Config: jp.Config, Start: bgp.Time(jp.StartSec)}
			byConfig[jp.Config] = rd
			order = append(order, jp.Config)
		}
		rec := Record{
			Dst:       addr,
			Proto:     protoOf(jp.Method),
			Port:      jp.Dport,
			SentAt:    bgp.Time(jp.StartSec),
			Responded: jp.Responded,
			RTTms:     jp.RTT,
			Retries:   jp.Retries,
		}
		if rec.RTTms < 0 || math.IsNaN(rec.RTTms) || math.IsInf(rec.RTTms, 0) {
			rec.RTTms = 0
		}
		if rec.Retries < 0 {
			rec.Retries = 0
		}
		switch jp.RxIfname {
		case simnet.VLANRE.Interface():
			rec.VLAN = simnet.VLANRE
		case simnet.VLANCommodity.Interface():
			rec.VLAN = simnet.VLANCommodity
		}
		if resolve != nil {
			if p, ok := resolve(addr); ok {
				rec.Prefix = p
			}
		}
		if rec.SentAt < rd.Start {
			rd.Start = rec.SentAt
		}
		if rec.SentAt > rd.End {
			rd.End = rec.SentAt
		}
		rd.Records = append(rd.Records, rec)
	}
	out := make([]Round, 0, len(order))
	for _, cfg := range order {
		out = append(out, *byConfig[cfg])
	}
	return out, nil
}

func protoOf(method string) simnet.Proto {
	switch method {
	case "tcp-syn":
		return simnet.TCP
	case "udp":
		return simnet.UDP
	default:
		return simnet.ICMP
	}
}

func parseAddr(s string) (uint32, error) {
	p, err := netutil.ParsePrefix(s + "/32")
	if err != nil {
		return 0, fmt.Errorf("probe: bad address %q: %w", s, err)
	}
	return p.Addr(), nil
}
