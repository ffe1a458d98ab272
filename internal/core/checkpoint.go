package core

// Survey checkpoint codec. A Checkpoint is the one value a survey's
// progress lives in: the experiments hand it to their Checkpoint hooks,
// WriteCheckpoint persists it as an RCKP container (internal/snapshot,
// format documented in internal/snapshot/FORMAT.md), and a decoded one
// is what a resumed run continues from. It captures a survey run
// between two configuration rounds: the
// configuration fingerprint the run was started with, the survey-level
// progress, the partial probe rounds, the seeded collector views, the
// completed SURF result (once the second experiment is in flight), a
// nested engine snapshot (bgp.Network.Snapshot), and the telemetry
// registry state (telemetry.Registry.SaveState).
//
// The codec and the checkpoint-directory helpers live here so the
// resident service (internal/serve) and the CLI share one format and
// one file convention — a job interrupted under either front end
// resumes under the other.

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/simnet"
	snap "repro/internal/snapshot"
	"repro/internal/telemetry"
)

// RCKP section ids, in file order.
const (
	ckSecFingerprint = 1
	ckSecProgress    = 2
	ckSecRounds      = 3
	ckSecOrigins     = 4
	ckSecSURF        = 5
	ckSecEngine      = 6
	ckSecTelemetry   = 7
)

// CheckpointFingerprint identifies the run configuration a checkpoint
// belongs to; resumption only accepts checkpoints whose fingerprint
// matches the current configuration. The worker count is deliberately
// excluded: output is identical for any worker count, so a 4-worker
// run may resume a 1-worker run's checkpoint.
type CheckpointFingerprint struct {
	Seed   int64
	Small  bool
	Faults float64
	NSeeds int
}

// Checkpoint is a survey run's progress between two configuration
// rounds, and one RCKP file. The experiments fill the progress fields;
// WriteCheckpoint adds the fingerprint and the nested sections.
type Checkpoint struct {
	Fingerprint CheckpointFingerprint
	// Phase is 0 while the SURF experiment runs, 1 for Internet2.
	Phase int
	// Done counts the in-flight experiment's completed configuration
	// rounds, 1 to len(Schedule()).
	Done int
	// ChurnStart is the in-flight experiment's churn-log index at the
	// start of its measured window.
	ChurnStart int
	// Start is the in-flight experiment's start time. For Phase 1 a
	// resumed run cannot recompute it: it derives from the network clock
	// after the SURF teardown.
	Start bgp.Time
	// Rounds (one per completed round) and Origins (the seeded collector
	// views) are the in-flight experiment's partial output.
	Rounds  []*probe.Round
	Origins map[uint32]*PeerView
	// SURF is the completed first experiment's result (Phase 1 only).
	SURF *Result
	// Engine is a nested bgp.Network.Snapshot; Telemetry a nested
	// telemetry.Registry.SaveState (empty when the run had no registry).
	Engine    []byte
	Telemetry []byte

	// span is the in-flight experiment's still-open span, reloaded from
	// Telemetry by OpenSurvey; the resumed experiment nests under it
	// instead of opening a second one.
	span *telemetry.Span
}

// WriteCheckpoint completes ck, a run's progress as the survey's
// Checkpoint hook hands it over, with the run's fingerprint, an engine
// snapshot and, when instrumented, the registry state, and persists it
// into dir atomically (snapshot.WriteFileAtomic).
func WriteCheckpoint(dir string, fp CheckpointFingerprint, ck *Checkpoint, net *bgp.Network, reg *telemetry.Registry) error {
	ck.Fingerprint = fp
	var eng bytes.Buffer
	if err := net.Snapshot(&eng); err != nil {
		return err
	}
	ck.Engine = eng.Bytes()
	if reg != nil {
		var tb bytes.Buffer
		if err := reg.SaveState(&tb); err != nil {
			return err
		}
		ck.Telemetry = tb.Bytes()
	}
	return snap.WriteFileAtomic(dir, CheckpointName(ck.Phase, ck.Done), ck.Encode())
}

// CheckpointName is the file name both front ends give the checkpoint
// taken after round done of phase; the names sort chronologically.
func CheckpointName(phase, done int) string {
	return fmt.Sprintf("ckpt-%d-%02d.rckp", phase, done)
}

// LatestCheckpoint scans dir for the newest checkpoint a run with
// fingerprint want can resume from and restores its engine section
// into net, the run's freshly built world. A checkpoint is usable only
// if that restore succeeds: the fingerprint knows the options but not
// the topology they built (-scale, a generator change), RestoreNetwork
// does — it refuses a snapshot of another network, or of a retired
// format, and leaves net untouched. Unreadable, corrupt and refused
// files are skipped in favour of the next-newest, each with a line to
// note (nil drops them). It returns nil when nothing usable exists —
// the caller cold-starts on the untouched net — plus the number of
// files skipped as unusable and the directory read error, a missing
// directory included.
func LatestCheckpoint(dir string, want CheckpointFingerprint, net *bgp.Network, note func(string)) (*Checkpoint, int, error) {
	if note == nil {
		note = func(string) {}
	}
	var ck *Checkpoint
	corrupt, err := snap.NewestValid(dir, ".rckp", func(name string, data []byte) (bool, error) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			note(fmt.Sprintf("checkpoint %s unusable, trying older: %v", name, err))
			return false, err
		}
		if c.Fingerprint != want {
			note(fmt.Sprintf("checkpoint %s belongs to a different run configuration, skipping", name))
			return false, nil
		}
		// Telemetry is checked on a scratch registry first: once the
		// engine state is in net there is no falling back.
		if len(c.Telemetry) > 0 {
			if _, err := telemetry.New().LoadState(bytes.NewReader(c.Telemetry)); err != nil {
				note(fmt.Sprintf("checkpoint %s telemetry unusable, trying older: %v", name, err))
				return false, err
			}
		}
		if err := bgp.RestoreNetwork(bytes.NewReader(c.Engine), net); err != nil {
			note(fmt.Sprintf("checkpoint %s engine state unusable, trying older: %v", name, err))
			return false, err
		}
		ck = c
		return true, nil
	})
	return ck, corrupt, err
}

// Encode serializes the checkpoint as an RCKP container.
func (c *Checkpoint) Encode() []byte {
	w := snap.NewWriter(snap.CheckpointMagic, snap.CheckpointVersion)

	var fp snap.Enc
	fp.I64(c.Fingerprint.Seed)
	fp.Bool(c.Fingerprint.Small)
	fp.Bool(true) // reserved, see FORMAT.md: where the two-path engine recorded its mode
	fp.F64(c.Fingerprint.Faults)
	fp.Uvarint(uint64(c.Fingerprint.NSeeds))
	w.Section(ckSecFingerprint, fp.Bytes())

	var pr snap.Enc
	pr.U8(uint8(c.Phase))
	pr.Uvarint(uint64(c.Done))
	pr.Uvarint(uint64(c.ChurnStart))
	pr.I64(int64(c.Start))
	w.Section(ckSecProgress, pr.Bytes())

	var rd snap.Enc
	rd.Uvarint(uint64(len(c.Rounds)))
	for _, r := range c.Rounds {
		encCkRound(&rd, r)
	}
	w.Section(ckSecRounds, rd.Bytes())

	var og snap.Enc
	encCkOrigins(&og, c.Origins)
	w.Section(ckSecOrigins, og.Bytes())

	var sf snap.Enc
	if c.SURF != nil {
		encCkResult(&sf, c.SURF)
	}
	w.Section(ckSecSURF, sf.Bytes())

	w.Section(ckSecEngine, c.Engine)
	w.Section(ckSecTelemetry, c.Telemetry)
	return w.Bytes()
}

// DecodeCheckpoint parses an RCKP container, validating section
// structure, every nested count, and the progress a resumed run
// trusts (a phase, 1 to len(Schedule()) rounds done, one probe round
// per round done); any corruption the container's CRCs or these checks
// catch yields an error, never a panic.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	secs, err := snap.DecodeSections(data, snap.CheckpointMagic, snap.CheckpointVersion)
	if err != nil {
		return nil, err
	}
	if len(secs) != 7 {
		return nil, fmt.Errorf("%w: %d sections, want 7", snap.ErrCorrupt, len(secs))
	}
	for i, want := range []byte{ckSecFingerprint, ckSecProgress, ckSecRounds, ckSecOrigins, ckSecSURF, ckSecEngine, ckSecTelemetry} {
		if secs[i].ID != want {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", snap.ErrCorrupt, i, secs[i].ID, want)
		}
	}
	c := &Checkpoint{}

	d := snap.NewDec(secs[0].Payload)
	c.Fingerprint.Seed = d.I64()
	c.Fingerprint.Small = d.Bool()
	d.Bool() // reserved engine-mode byte
	c.Fingerprint.Faults = d.F64()
	c.Fingerprint.NSeeds = int(d.Uvarint())
	if err := d.Done(); err != nil {
		return nil, err
	}

	d = snap.NewDec(secs[1].Payload)
	c.Phase = int(d.U8())
	c.Done = int(d.Uvarint())
	c.ChurnStart = int(d.Uvarint())
	c.Start = bgp.Time(d.I64())
	if err := d.Done(); err != nil {
		return nil, err
	}
	if c.Phase > 1 {
		return nil, fmt.Errorf("%w: phase %d", snap.ErrCorrupt, c.Phase)
	}
	if c.Done < 1 || c.Done > len(Schedule()) {
		return nil, fmt.Errorf("%w: %d rounds done, want 1 to %d", snap.ErrCorrupt, c.Done, len(Schedule()))
	}

	d = snap.NewDec(secs[2].Payload)
	n := d.Count(1)
	c.Rounds = make([]*probe.Round, 0, n)
	for i := 0; i < n; i++ {
		r, err := decCkRound(d)
		if err != nil {
			return nil, err
		}
		c.Rounds = append(c.Rounds, r)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if len(c.Rounds) != c.Done {
		return nil, fmt.Errorf("%w: %d probe rounds for %d rounds done", snap.ErrCorrupt, len(c.Rounds), c.Done)
	}

	d = snap.NewDec(secs[3].Payload)
	if c.Origins, err = decCkOrigins(d); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	if len(secs[4].Payload) > 0 {
		d = snap.NewDec(secs[4].Payload)
		if c.SURF, err = decCkResult(d); err != nil {
			return nil, err
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
	}
	if c.Phase == 1 && c.SURF == nil {
		return nil, fmt.Errorf("%w: phase 1 checkpoint without a SURF result", snap.ErrCorrupt)
	}

	c.Engine = secs[5].Payload
	c.Telemetry = secs[6].Payload
	return c, nil
}

// --- field codecs ---

func encCkRound(e *snap.Enc, r *probe.Round) {
	e.String(r.Config)
	e.I64(int64(r.Start))
	e.I64(int64(r.End))
	e.Uvarint(uint64(r.Len()))
	for c := r.Cursor(); c.Next(); {
		rec := c.Record()
		e.Prefix(rec.Prefix)
		e.U32(rec.Dst)
		e.U8(uint8(rec.Proto))
		e.U16(rec.Port)
		e.I64(int64(rec.SentAt))
		e.Bool(rec.Responded)
		e.U8(uint8(rec.VLAN))
		e.F64(rec.RTTms)
		e.Uvarint(uint64(rec.Retries))
	}
}

func decCkRound(d *snap.Dec) (*probe.Round, error) {
	r := &probe.Round{Config: d.String()}
	r.Start = bgp.Time(d.I64())
	r.End = bgp.Time(d.I64())
	n := d.Count(19)
	if n > 0 {
		r.Records = make([]probe.Record, 0, n)
	}
	for i := 0; i < n; i++ {
		var rec probe.Record
		var err error
		if rec.Prefix, err = d.Prefix(); err != nil {
			return nil, err
		}
		rec.Dst = d.U32()
		rec.Proto = simnet.Proto(d.U8())
		rec.Port = d.U16()
		rec.SentAt = bgp.Time(d.I64())
		rec.Responded = d.Bool()
		rec.VLAN = simnet.VLAN(d.U8())
		rec.RTTms = d.F64()
		rec.Retries = int(d.Uvarint())
		r.Records = append(r.Records, rec)
	}
	return r, d.Err()
}

func encCkOrigins(e *snap.Enc, origins map[uint32]*PeerView) {
	peers := make([]uint32, 0, len(origins))
	for as := range origins {
		peers = append(peers, as)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	e.Uvarint(uint64(len(peers)))
	for _, as := range peers {
		pv := origins[as]
		e.U32(as)
		e.U32(pv.FinalOrigin)
		seen := make([]uint32, 0, len(pv.OriginsSeen))
		for o, ok := range pv.OriginsSeen {
			if ok {
				seen = append(seen, o)
			}
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		e.Uvarint(uint64(len(seen)))
		for _, o := range seen {
			e.U32(o)
		}
	}
}

func decCkOrigins(d *snap.Dec) (map[uint32]*PeerView, error) {
	n := d.Count(9)
	out := make(map[uint32]*PeerView, n)
	for i := 0; i < n; i++ {
		as := d.U32()
		pv := &PeerView{FinalOrigin: d.U32(), OriginsSeen: map[uint32]bool{}}
		m := d.Count(4)
		for j := 0; j < m; j++ {
			pv.OriginsSeen[d.U32()] = true
		}
		out[as] = pv
	}
	return out, d.Err()
}

func encCkResult(e *snap.Enc, res *Result) {
	e.String(res.Name)
	e.Uvarint(uint64(len(res.Configs)))
	for _, c := range res.Configs {
		e.Uvarint(uint64(c.RE))
		e.Uvarint(uint64(c.Commodity))
	}
	e.Uvarint(uint64(len(res.ConfigTimes)))
	for _, t := range res.ConfigTimes {
		e.I64(int64(t))
	}
	e.Uvarint(uint64(len(res.Rounds)))
	for _, r := range res.Rounds {
		encCkRound(e, r)
	}
	e.Uvarint(uint64(len(res.PerPrefix)))
	for _, pr := range res.PerPrefix {
		e.Prefix(pr.Prefix)
		e.Uvarint(uint64(len(pr.Seq)))
		for _, o := range pr.Seq {
			e.U8(uint8(o))
		}
		e.U8(uint8(pr.Inference))
		e.F64(pr.Confidence)
		e.Uvarint(uint64(pr.Observed))
	}
	e.Uvarint(uint64(len(res.Churn)))
	for _, u := range res.Churn {
		e.I64(int64(u.At))
		e.U32(uint32(u.Collector))
		e.U32(uint32(u.PeerAS))
		e.Prefix(u.Prefix)
		e.Bool(u.Announce)
		e.Uvarint(uint64(len(u.Path)))
		for _, a := range u.Path {
			e.U32(uint32(a))
		}
	}
	encCkOrigins(e, res.CollectorOrigins)
}

func decCkResult(d *snap.Dec) (*Result, error) {
	res := &Result{Name: d.String()}
	n := d.Count(2)
	for i := 0; i < n; i++ {
		res.Configs = append(res.Configs, PrependConfig{RE: int(d.Uvarint()), Commodity: int(d.Uvarint())})
	}
	n = d.Count(8)
	for i := 0; i < n; i++ {
		res.ConfigTimes = append(res.ConfigTimes, bgp.Time(d.I64()))
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		r, err := decCkRound(d)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, r)
	}
	// The per-prefix results are the analyses' input: anything the
	// classifier cannot have produced is corrupt, including a prefix
	// out of canonical order or repeated.
	n = d.Count(16)
	for i := 0; i < n; i++ {
		p, err := d.Prefix()
		if err != nil {
			return nil, err
		}
		if i > 0 && netutil.ComparePrefixes(res.PerPrefix[i-1].Prefix, p) >= 0 {
			return nil, fmt.Errorf("%w: per-prefix result %s out of order", snap.ErrCorrupt, p)
		}
		pr := &PrefixResult{Prefix: p}
		m := d.Count(1)
		for j := 0; j < m; j++ {
			o := RoundObs(d.U8())
			if o > ObsMixed {
				return nil, fmt.Errorf("%w: %s: round observation %d", snap.ErrCorrupt, p, o)
			}
			pr.Seq = append(pr.Seq, o)
		}
		if pr.Inference = Inference(d.U8()); pr.Inference >= numInferences {
			return nil, fmt.Errorf("%w: %s: inference %d", snap.ErrCorrupt, p, pr.Inference)
		}
		pr.Confidence = d.F64()
		pr.Observed = int(d.Uvarint())
		res.PerPrefix = append(res.PerPrefix, pr)
	}
	n = d.Count(19)
	for i := 0; i < n; i++ {
		u := bgp.UpdateRecord{
			At:        bgp.Time(d.I64()),
			Collector: bgp.RouterID(d.U32()),
			PeerAS:    asn.AS(d.U32()),
		}
		var err error
		if u.Prefix, err = d.Prefix(); err != nil {
			return nil, err
		}
		u.Announce = d.Bool()
		m := d.Count(4)
		if m > 0 {
			u.Path = make(asn.Path, m)
			for j := range u.Path {
				u.Path[j] = asn.AS(d.U32())
			}
		}
		res.Churn = append(res.Churn, u)
	}
	var err error
	if res.CollectorOrigins, err = decCkOrigins(d); err != nil {
		return nil, err
	}
	return res, d.Err()
}
