package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/probe"
	snap "repro/internal/snapshot"
	"repro/internal/telemetry"
)

// TestCheckpointRoundTrip pins the RCKP codec on a real mid-run
// checkpoint: the value the Checkpoint hook hands over in the second
// experiment, completed by WriteCheckpoint with an engine snapshot and
// the registry state, decodes from its file deeply equal.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	checked := false
	runWritingCheckpoints(t, dir, telemetry.New(), func(_ *bgp.Network, ck *Checkpoint) bool {
		if ck.Phase != 1 || ck.Done != 3 {
			return false
		}
		// Compare now: Rounds and Origins alias the live result.
		if ck.SURF == nil || len(ck.Origins) == 0 || len(ck.Engine) == 0 || len(ck.Telemetry) == 0 {
			t.Fatalf("checkpoint lacks a section worth pinning: %+v", ck)
		}
		data, err := os.ReadFile(filepath.Join(dir, CheckpointName(ck.Phase, ck.Done)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		// The file holds the rounds' records; they decode to the record
		// layout, so the written rounds compare in it.
		want := *ck
		want.SURF = inRecordLayout(ck.SURF)
		want.Rounds = inRecordLayout(&Result{Rounds: ck.Rounds}).Rounds
		got.SURF = inRecordLayout(got.SURF)
		got.Rounds = inRecordLayout(&Result{Rounds: got.Rounds}).Rounds
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("decoded checkpoint differs from the one written:\n got %+v\nwant %+v", got, &want)
		}
		checked = true
		return true
	})
	if !checked {
		t.Fatal("checkpoint (phase 1, done 3) never fired")
	}
}

// tinyNet builds an n-speaker chain: the smallest networks that are
// distinguishable by topology fingerprint.
func tinyNet(t *testing.T, n int) (*bgp.Network, []byte) {
	t.Helper()
	net := bgp.NewNetwork()
	for i := 1; i <= n; i++ {
		net.AddSpeaker(bgp.RouterID(i), asn.AS(64511+i), "")
		if i > 1 {
			pc := bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet(bgp.ClassOwn)}
			net.Connect(bgp.RouterID(i-1), bgp.RouterID(i), pc, pc)
		}
	}
	var buf bytes.Buffer
	if err := net.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return net, buf.Bytes()
}

// TestLoadLatestCheckpointFingerprint checks that checkpoints from a
// different run configuration are skipped without being counted as
// corrupt, and that one whose flags match but whose engine section
// belongs to another topology — all the fingerprint cannot see — is
// skipped, counted, and leaves the world as built.
func TestLoadLatestCheckpointFingerprint(t *testing.T) {
	dir := t.TempDir()
	c := syntheticCheckpoint()
	base, engine := tinyNet(t, 2)
	c.Engine = engine
	if err := os.WriteFile(filepath.Join(dir, CheckpointName(c.Phase, c.Done)), c.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Same flags, same topology: found.
	fp := c.Fingerprint
	ck, corrupt, _ := LatestCheckpoint(dir, fp, base, nil)
	if ck == nil || corrupt != 0 {
		t.Fatalf("matching fingerprint: ck=%v corrupt=%d, want found with 0 corrupt", ck, corrupt)
	}
	// Same flags, another topology: refused where it is chosen.
	other, before := tinyNet(t, 3)
	ck, corrupt, _ = LatestCheckpoint(dir, fp, other, nil)
	if ck != nil || corrupt != 1 {
		t.Fatalf("foreign engine section: ck=%v corrupt=%d, want nil with 1 corrupt", ck, corrupt)
	}
	var after bytes.Buffer
	if err := other.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after.Bytes()) {
		t.Fatal("refusing a foreign engine section modified the base network")
	}
	// Different seed: skipped, not corrupt, nothing usable left.
	fp.Seed++
	ck, corrupt, _ = LatestCheckpoint(dir, fp, base, nil)
	if ck != nil || corrupt != 0 {
		t.Fatalf("mismatched fingerprint: ck=%v corrupt=%d, want nil with 0 corrupt", ck, corrupt)
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to DecodeCheckpoint: it
// must return an error or a checkpoint whose progress a resumed run
// can trust — never panic — and a decoded checkpoint must re-encode to
// bytes that decode and re-encode to themselves. The corpus starts
// from the synthetic fixture and a real checkpoint of a small run.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(syntheticCheckpoint().Encode())
	runWritingCheckpoints(f, f.TempDir(), nil, func(_ *bgp.Network, ck *Checkpoint) bool {
		// The engine section is an opaque payload to this decoder
		// (FuzzSnapshotDecode covers it); leaving it out keeps the seed
		// small enough to mutate quickly.
		c := *ck
		c.Engine = nil
		f.Add(c.Encode())
		return true
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if c.Phase > 1 || c.Done < 1 || c.Done > len(Schedule()) || len(c.Rounds) != c.Done ||
			(c.Phase == 1 && c.SURF == nil) {
			t.Fatalf("accepted untrustworthy progress: phase %d, %d done, %d rounds", c.Phase, c.Done, len(c.Rounds))
		}
		if c.SURF != nil {
			for i, pr := range c.SURF.PerPrefix {
				if i > 0 && netutil.ComparePrefixes(c.SURF.PerPrefix[i-1].Prefix, pr.Prefix) >= 0 {
					t.Fatalf("accepted SURF results out of canonical order at %s", pr.Prefix)
				}
				if pr.Inference >= numInferences {
					t.Fatalf("accepted SURF result %s with inference %d", pr.Prefix, pr.Inference)
				}
				for _, o := range pr.Seq {
					if o > ObsMixed {
						t.Fatalf("accepted SURF result %s with observation %d", pr.Prefix, o)
					}
				}
			}
		}
		enc := c.Encode()
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("re-encoding a decoded checkpoint is not stable")
		}
	})
}

// TestDecodeRejectsCraftedSURFResults: a phase-1 checkpoint's SURF
// rows are what the analyses read after a resume, so each row the
// classifier cannot have produced is corrupt — an inference or a round
// observation out of range, a prefix repeated or out of canonical order
// — and LatestCheckpoint falls back to an older file. Once accepted, an
// inference past the last category made Compare panic.
func TestDecodeRejectsCraftedSURFResults(t *testing.T) {
	a, b := netutil.PrefixFrom(0x0a000000, 24), netutil.PrefixFrom(0x0a000100, 24)
	row := func(p netutil.Prefix, inf Inference, seq ...RoundObs) *PrefixResult {
		return &PrefixResult{Prefix: p, Seq: seq, Inference: inf, Confidence: 1, Observed: len(seq)}
	}
	cases := []struct {
		name string
		rows []*PrefixResult
	}{
		{"inference-out-of-range", []*PrefixResult{row(a, 200, ObsRE), row(b, InfAlwaysRE, ObsRE)}},
		{"observation-out-of-range", []*PrefixResult{row(a, InfAlwaysRE, ObsRE, ObsMixed+1), row(b, InfAlwaysRE, ObsRE)}},
		{"duplicate-prefix", []*PrefixResult{row(a, InfAlwaysRE, ObsRE), row(a, InfAlwaysCommodity, ObsCommodity)}},
		{"out-of-order-prefix", []*PrefixResult{row(b, InfAlwaysRE, ObsRE), row(a, InfAlwaysRE, ObsRE)}},
	}
	c := syntheticCheckpoint()
	c.SURF.PerPrefix = []*PrefixResult{row(a, InfMixed, ObsMixed), row(b, InfInsufficientData, ObsLoss)}
	if _, err := DecodeCheckpoint(c.Encode()); err != nil {
		t.Fatalf("well-formed SURF rows refused: %v", err)
	}
	for _, tc := range cases {
		c := syntheticCheckpoint()
		c.SURF.PerPrefix = tc.rows
		if _, err := DecodeCheckpoint(c.Encode()); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: decoded with error %v, want snapshot.ErrCorrupt", tc.name, err)
		}
	}
}

// syntheticCheckpoint is a small phase-1 checkpoint for codec tests
// that need no pipeline run.
func syntheticCheckpoint() *Checkpoint {
	surf := resultFixture()
	r := surf.Rounds[0]
	return &Checkpoint{
		Fingerprint: CheckpointFingerprint{Seed: 7, Small: true, Faults: 0.5, NSeeds: 3},
		Phase:       1,
		Done:        3,
		ChurnStart:  42,
		Start:       9 * 3600,
		Rounds:      []*probe.Round{r, r, r},
		Origins:     surf.CollectorOrigins,
		SURF:        surf,
		Engine:      []byte("not a real engine snapshot"),
		Telemetry:   []byte(`{"counters":[]}`),
	}
}

// resultFixture builds a small but fully populated Result for codec
// round-trip tests.
func resultFixture() *Result {
	pfx := netutil.PrefixFrom(0x0a000000, 24)
	return &Result{
		Name:        "SURF",
		Configs:     []PrependConfig{{RE: 0, Commodity: 0}, {RE: 1, Commodity: 0}},
		ConfigTimes: []bgp.Time{9 * 3600, 10 * 3600},
		Rounds: []*probe.Round{{
			Config: "0-0",
			Start:  9 * 3600,
			End:    9*3600 + 60,
			Records: []probe.Record{{
				Prefix: pfx, Dst: 0x0a000001, Proto: 1, Port: 33434,
				SentAt: 9*3600 + 5, Responded: true, VLAN: 2, RTTms: 17.5, Retries: 1,
			}},
		}},
		PerPrefix: []*PrefixResult{
			{Prefix: pfx, Seq: []RoundObs{1, 2, 1}, Inference: 2, Confidence: 0.75, Observed: 3},
		},
		Churn: []bgp.UpdateRecord{{
			At: 9*3600 + 1, Collector: 3, PeerAS: 64512, Prefix: pfx,
			Announce: true, Path: asn.Path{64512, 11537},
		}},
		CollectorOrigins: map[uint32]*PeerView{
			64512: {FinalOrigin: 11537, OriginsSeen: map[uint32]bool{11537: true, 396955: true}},
		},
	}
}
