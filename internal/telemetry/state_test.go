package telemetry

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestStateRoundTrip pins the lossless save/load contract: a registry
// saved mid-run and loaded into a fresh one must produce a
// byte-identical zero-duration manifest once both finish the same way.
func TestStateRoundTrip(t *testing.T) {
	run := func(checkpoint *bytes.Buffer, resume bool) []byte {
		r := New()
		r.SetClock((&fakeClock{t: time.Unix(1700000000, 0)}).now)
		var exp *Span
		if resume {
			open, err := r.LoadState(bytes.NewReader(checkpoint.Bytes()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(open) != 1 || open[0].path != "experiment:test" {
				t.Fatalf("open spans = %+v", open)
			}
			exp = open[0]
		} else {
			r.Counter("updates_total").Add(40)
			r.Counter(Label("probe_sent_total", "config", "0-0")).Add(7)
			r.Gauge("confidence_mean").Set(0.875)
			r.Histogram("rtt_ms", 1, 10, 100).Observe(3.5)
			r.Histogram("rtt_ms").Observe(250)
			r.SetWorkers(4)
			r.AddShardTiming("probe", 0, 64, 5*time.Millisecond)
			r.AddShardTiming("probe", 1, 32, 3*time.Millisecond)
			done := r.StartSpan("build")
			done.End()
			exp = r.StartSpan("experiment:test")
			cfg := r.StartSpan("config:0-0")
			cfg.End()
			if checkpoint != nil {
				if err := r.SaveState(checkpoint); err != nil {
					t.Fatalf("save: %v", err)
				}
			}
		}
		// The remainder of the "run", identical either way.
		cfg := r.StartSpan("config:4-0")
		cfg.End()
		exp.End()
		r.Counter("updates_total").Add(2)
		m, err := r.Snapshot(SnapshotOptions{Seed: 1, ZeroDurations: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var ckpt bytes.Buffer
	cold := run(&ckpt, false)
	warm := run(&ckpt, true)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("resumed manifest differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	// Sanity: the resumed span nests correctly (config under experiment).
	m, _ := ReadManifest(bytes.NewReader(warm))
	foundNested := false
	for _, p := range m.Phases {
		if p.Path == "experiment:test/config:4-0" && p.Depth == 1 {
			foundNested = true
		}
	}
	if !foundNested {
		t.Fatalf("resumed run lost span nesting: %+v", m.Phases)
	}
}

func TestStateRejectsGarbage(t *testing.T) {
	r := New()
	if _, err := r.LoadState(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("garbage state loaded cleanly")
	}
}

// TestManifestSnapshotSection checks that the dedicated snapshot
// section mirrors the warm-start counters.
func TestManifestSnapshotSection(t *testing.T) {
	r := New()
	r.Counter("snapshot_bytes").Add(1234)
	r.Counter("snapshot_restore_total").Add(5)
	r.Counter("core_warm_start_skipped_convergence_runs_total").Add(4)
	m, err := r.Snapshot(SnapshotOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot.Bytes != 1234 || m.Snapshot.Restores != 5 || m.Snapshot.SkippedConvergenceRuns != 4 {
		t.Fatalf("snapshot section = %+v", m.Snapshot)
	}
	// Absent counters produce a zero section, not a panic.
	m2, err := New().Snapshot(SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Snapshot != (SnapshotActivity{}) {
		t.Fatalf("zero registry snapshot section = %+v", m2.Snapshot)
	}
}

// TestLoadStateRejectsWithoutChange: a state add rejects leaves the
// registry as it was, whichever check fails.
func TestLoadStateRejectsWithoutChange(t *testing.T) {
	for name, state := range map[string]string{
		"no buckets":        `{"metrics":{"counters":[{"name":"a","value":1}],"histograms":[{"name":"h","buckets":[]}]}}`,
		"bad bound":         `{"metrics":{"counters":[{"name":"a","value":1}],"histograms":[{"name":"h","buckets":[{"le":"x"},{"le":"+Inf"}]}]}}`,
		"bucket count":      `{"metrics":{"counters":[{"name":"a","value":1}],"histograms":[{"name":"rtt","buckets":[{"le":"+Inf"}]}]}}`,
		"repeated hist":     `{"metrics":{"histograms":[{"name":"h","buckets":[{"le":"+Inf"}]},{"name":"h","buckets":[{"le":"+Inf"}]}]}}`,
		"sum out of range":  `{"metrics":{"counters":[{"name":"a","value":1}],"histograms":[{"name":"h","sum":1e10,"buckets":[{"le":"+Inf"}]}]}}`,
		"sum not in micros": `{"metrics":{"counters":[{"name":"a","value":1}],"histograms":[{"name":"h","sum":1e-7,"buckets":[{"le":"+Inf"}]}]}}`,
		"negative counter":  `{"metrics":{"counters":[{"name":"a","value":-1}]}}`,
		"repeated counter":  `{"metrics":{"counters":[{"name":"a","value":9223372036854775807},{"name":"a","value":1}]}}`,
	} {
		r := New()
		r.Histogram("rtt", 1, 2).Observe(1)
		before := r.state()
		if _, err := r.LoadState(strings.NewReader(state)); err == nil {
			t.Errorf("%s: loaded cleanly", name)
		}
		if after := r.state(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: rejected state changed the registry:\n%+v\n%+v", name, before, after)
		}
	}
}

// TestMergeBucketMismatchPanics: one program fills both registries, so
// a histogram whose bucket count differs is a bug, not data to clip.
func TestMergeBucketMismatchPanics(t *testing.T) {
	r, sub := New(), New()
	r.Histogram("h", 1, 2)
	sub.Histogram("h", 1).Observe(1)
	defer func() {
		if recover() == nil {
			t.Error("mismatched Merge did not panic")
		}
	}()
	r.Merge(sub)
}

// FuzzLoadState feeds arbitrary bytes to LoadState, as a checkpoint's
// section 7 read from disk would: it never panics, and a state it
// accepts saves and reloads to the same zero-duration manifest. The
// seed is the section 7 of a real -small run's fifth checkpoint.
func FuzzLoadState(f *testing.F) {
	seed, err := os.ReadFile("testdata/section7.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"metrics":{"histograms":[{"name":"h","sum":0.000001,"buckets":[{"le":"NaN"},{"le":"+Inf","count":1}]}]},"seq":-3}`))
	manifest := func(t *testing.T, r *Registry) []byte {
		m, err := r.Snapshot(SnapshotOptions{Version: "vtest", ZeroDurations: true})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := m.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New()
		if _, err := r.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		var saved bytes.Buffer
		if err := r.SaveState(&saved); err != nil {
			t.Fatalf("save: %v", err)
		}
		again := New()
		if _, err := again.LoadState(&saved); err != nil {
			t.Fatalf("reload of a saved state: %v\n%s", err, saved.Bytes())
		}
		if a, b := manifest(t, r), manifest(t, again); !bytes.Equal(a, b) {
			t.Fatalf("manifest moved over save and reload:\n%s\n%s", a, b)
		}
	})
}
