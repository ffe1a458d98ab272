package bgp_test

// Topology-scale differential coverage of the decision path. The tests
// live in the external test package because they drive whole
// experiments through internal/core, which imports bgp; they reach the
// full-scan reference through export_test.go like the engine-level
// harness in incremental_test.go does.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// equivCell runs one experiment (Internet2-style, like the fault
// sweep's points) on the engine or, with reference set, on the
// full-scan reference, and returns its result plus a byte-rendered,
// zero-timed manifest.
func equivCell(t *testing.T, cfg topo.GenConfig, seed int64, intensity float64, reference bool) (*core.Result, []byte, bgp.IncStats) {
	t.Helper()
	opts := core.SmallSurveyOptions()
	opts.Topology = cfg
	opts.Topology.Seed = seed

	reg := telemetry.New()
	s := core.NewSurvey(opts)
	s.Eco.Net.SetReferenceScan(reference)
	s.SetMetrics(reg)
	s.Workers = 1
	s.Prober.Workers = 1
	start := bgp.Time(9 * 3600)
	x := core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, start)
	x.Metrics = reg
	x.Workers = 1

	var res *core.Result
	if intensity > 0 {
		window := faults.Window{
			Start: start,
			End:   start + bgp.Time(len(core.Schedule())+1)*x.Cfg.RoundGap,
		}
		sched := faults.Generate(s.Eco, window, faults.Config{Seed: 1789, Intensity: intensity})
		inj := faults.NewInjector(sched)
		inj.SetMetrics(reg)
		inj.Install(s.World, s.Eco.Net)
		x.Cfg.Advance = inj.Advance
		x.Cfg.Quorum = 6
		s.Prober.Retry = probe.DefaultRetryPolicy()
		res = x.Run()
		inj.Finish(s.Eco.Net)
		inj.Uninstall(s.World, s.Eco.Net)
	} else {
		res = x.Run()
	}

	m, err := reg.Snapshot(telemetry.SnapshotOptions{Seed: seed, ZeroDurations: true})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// The equivalence contract exempts exactly the work-accounting
	// counters: the fast path exists to do fewer full scans, so
	// bgp_decision_full_scans_total and the bgp_inc_* family are the
	// only metrics allowed to differ from the reference.
	kept := m.Metrics.Counters[:0]
	for _, c := range m.Metrics.Counters {
		if c.Name == "bgp_decision_full_scans_total" || strings.HasPrefix(c.Name, "bgp_inc_") {
			continue
		}
		kept = append(kept, c)
	}
	m.Metrics.Counters = kept
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("render manifest: %v", err)
	}
	return res, buf.Bytes(), s.Eco.Net.Stats()
}

// TestIncrementalEquivalenceMatrix is the pipeline-level differential
// proof: across seeds × topologies × fault intensities, the full-scan
// reference and the engine must produce byte-identical manifests and
// deeply equal classifications, churn logs, and collector snapshots.
func TestIncrementalEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is a multi-run sweep; skipped in -short")
	}
	small := topo.SmallConfig()
	// A second, differently shaped world: sparser membership, fewer
	// collector feeds, more VRF-split peers.
	variant := topo.SmallConfig()
	variant.MembersUS = 90
	variant.MembersIntl = 60
	variant.CollectorMemberPeers = 8
	variant.VRFSplitPeers = 4
	variant.ExtraCollectorFeeds = 12

	topologies := []struct {
		name string
		cfg  topo.GenConfig
	}{{"small", small}, {"variant", variant}}

	for _, seed := range []int64{1, 2, 3} {
		for _, tc := range topologies {
			for _, intensity := range []float64{0, 0.5} {
				fullRes, fullManifest, fullStats := equivCell(t, tc.cfg, seed, intensity, true)
				incRes, incManifest, incStats := equivCell(t, tc.cfg, seed, intensity, false)
				name := tc.name
				if !bytes.Equal(fullManifest, incManifest) {
					t.Errorf("seed %d topo %s intensity %.1f: manifests differ\n--- full ---\n%s\n--- incremental ---\n%s",
						seed, name, intensity, fullManifest, incManifest)
					continue
				}
				if !reflect.DeepEqual(fullRes.PerPrefix, incRes.PerPrefix) {
					t.Errorf("seed %d topo %s intensity %.1f: classifications differ", seed, name, intensity)
				}
				if !reflect.DeepEqual(fullRes.Churn, incRes.Churn) {
					t.Errorf("seed %d topo %s intensity %.1f: collector churn differs", seed, name, intensity)
				}
				if !reflect.DeepEqual(fullRes.CollectorOrigins, incRes.CollectorOrigins) {
					t.Errorf("seed %d topo %s intensity %.1f: collector origin snapshots differ", seed, name, intensity)
				}
				if !reflect.DeepEqual(fullRes.Rounds, incRes.Rounds) {
					t.Errorf("seed %d topo %s intensity %.1f: probe rounds differ", seed, name, intensity)
				}
				if incStats.FullScans >= fullStats.FullScans {
					t.Errorf("seed %d topo %s intensity %.1f: engine ran %d full scans vs the reference's %d",
						seed, name, intensity, incStats.FullScans, fullStats.FullScans)
				}
			}
		}
	}
}

// TestIncrementalEvalReduction pins the acceptance bar: across the
// nine-config sweep the engine must do at least 5x fewer full
// decision-process evaluations than the full-scan reference.
func TestIncrementalEvalReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment twice; skipped in -short")
	}
	_, _, fullStats := equivCell(t, topo.SmallConfig(), 1, 0, true)
	_, _, incStats := equivCell(t, topo.SmallConfig(), 1, 0, false)
	if incStats.FullScans == 0 {
		t.Fatal("the engine reported zero full scans — accounting broken")
	}
	ratio := float64(fullStats.FullScans) / float64(incStats.FullScans)
	t.Logf("decision-process evaluations: reference=%d engine=%d (%.1fx fewer; fastpath=%d noop=%d)",
		fullStats.FullScans, incStats.FullScans, ratio, incStats.FastPath, incStats.NoopDecisions)
	if ratio < 5 {
		t.Errorf("the engine did only %.1fx fewer decision evaluations than the reference, want >= 5x", ratio)
	}
}
