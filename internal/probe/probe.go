// Package probe is the reproduction's scamper: it paces benign
// ICMP-echo / TCP SYN / UDP probes at a configured rate from the
// measurement host, records which VLAN interface each response arrived
// on (the IP_PKTINFO mechanism of §3.1), and serializes rounds as
// scamper-module-style JSON.
package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

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
type Round struct {
	Config  string // prepend configuration label, e.g. "4-0"
	Start   bgp.Time
	End     bgp.Time
	Records []Record
}

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
// virtual time start, and returns the round in records of its own. It
// is Fill into a new Round.
func (pr *Prober) Run(config string, start bgp.Time, sel *seeds.Selection) *Round {
	round := &Round{}
	pr.Fill(round, config, start, sel)
	return round
}

// Fill probes every selected target once, pacing at PPS, starting at
// virtual time start, and writes the round into round, reusing its
// Records' storage when it is large enough: every slot is rewritten,
// so a caller that probes round after round and keeps no records (the
// optimizer's census) allocates them once. Targets are visited, and
// their records written, in the selection's canonical prefix order:
// the records of sel.Prefixes[i] are one run, in target order, right
// after those of sel.Prefixes[i-1].
//
// The prefix list is sharded (probeShardSize prefixes per shard) and
// probed by up to Workers goroutines. Three properties make the result
// independent of the worker count: each target's pacing slot is its
// index in the canonical target order (not a shared sent counter), each
// prefix draws probe loss from its own (round, prefix) stream — a
// shard holds one RNG and points it at each prefix's stream in turn
// (simnet.World.LossStream) — and that same index is the target's slot
// in Records, so shards write disjoint ranges and nothing is merged.
// The BGP network is static while a round runs, so Fill fills the
// round's catchment of the measurement prefix once, before sharding,
// and every probe is a lookup in it that the shards share and only
// read; each target carries the host seed selection resolved, so a
// probe looks up no address either.
func (pr *Prober) Fill(round *Round, config string, start bgp.Time, sel *seeds.Selection) {
	rate := pr.PPS
	if rate <= 0 {
		rate = 100
	}
	prefixes := sel.Prefixes
	// offsets[i] is the canonical index of prefix i's first target —
	// the pacing slot basis that replaces the sequential sent counter.
	offsets := make([]int, len(prefixes)+1)
	for i, pt := range prefixes {
		offsets[i+1] = offsets[i] + len(pt.Targets)
	}
	records := round.Records
	if n := offsets[len(prefixes)]; cap(records) >= n {
		records = records[:n]
	} else {
		records = make([]Record, n)
	}
	*round = Round{Config: config, Start: start, Records: records}
	view := pr.World.Net.Catchment(pr.World.MeasPrefix)

	shardRetries, timings := parallel.CollectTimed(len(prefixes), probeShardSize, pr.Workers,
		func(s parallel.Shard) int {
			retries := 0
			rng := parallel.Rand(0, 0) // pointed at each prefix's stream below
			for i := s.Lo; i < s.Hi; i++ {
				pt := prefixes[i]
				pr.World.LossStream(rng, start, pt.Prefix)
				for j, tgt := range pt.Targets {
					slot := offsets[i] + j
					rec, n := pr.probeTarget(view, pt.Prefix, tgt, start+bgp.Time(slot/rate), rng)
					records[slot] = rec
					retries += n
				}
			}
			return retries
		})

	totalSent := len(records)
	for _, n := range shardRetries {
		totalSent += n
	}
	for _, t := range timings {
		pr.registry.AddShardTiming("probe", t.Shard, t.Items, t.Duration)
	}
	round.End = start + bgp.Time(totalSent/rate) + 1
}

// probeTarget probes one target at time at through the round's
// catchment view, retrying per the policy with draws from the prefix's
// loss stream, and returns the record plus the retry count.
func (pr *Prober) probeTarget(view *bgp.Catchment, p netutil.Prefix, tgt seeds.Target, at bgp.Time, rng *rand.Rand) (Record, int) {
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
	rec := Record{
		Prefix:    p,
		Dst:       tgt.Addr,
		Proto:     tgt.Proto,
		Port:      tgt.Port,
		SentAt:    at,
		Responded: res.Responded,
		VLAN:      res.VLAN,
		Retries:   retries,
	}
	if res.Responded {
		// Synthetic RTT: per-AS-hop serialization plus a small
		// deterministic spread; flavour only.
		rec.RTTms = 4.0 + 7.5*float64(res.Hops) + float64(tgt.Addr%97)/10
		switch res.VLAN {
		case simnet.VLANRE:
			pr.metrics.respRE.Inc()
		case simnet.VLANCommodity:
			pr.metrics.respCommodity.Inc()
		}
		pr.metrics.rtt.Observe(rec.RTTms)
	} else {
		pr.metrics.unanswered.Inc()
	}
	return rec, retries
}

// Duration returns the round's wall-clock length in virtual seconds.
func (r *Round) Duration() bgp.Time { return r.End - r.Start }

// Responded counts the round's probes that drew a response.
func (r *Round) Responded() int {
	n := 0
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
	for _, rec := range r.Records {
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
