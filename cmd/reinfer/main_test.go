package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/simnet"
)

// writeFixture runs a tiny experiment and saves its probe JSON.
func writeFixture(t *testing.T, dir, name string, surfStyle bool) string {
	t.Helper()
	opts := core.SmallSurveyOptions()
	s := core.NewSurvey(opts)
	var x *core.Experiment
	if surfStyle {
		x = core.NewSURFExperiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600)
	} else {
		x = core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600)
	}
	res := x.Run()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rd := range res.Rounds {
		if err := s.Prober.WriteJSON(f, rd); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestOfflineEqualsOnline: reinfer is the survey's own classifier run
// over saved probe JSON. A -small survey writes both experiments'
// rounds; reclassified through reinfer's path, every probed /24 must
// come back with the sequence and inference the survey gave it. The
// /24 limit is reinfer's: it attributes each record to its covering
// /24, which for a probed /24 is the prefix itself. The small tier
// probes 579 prefixes, 423 of them /24s, in each experiment; the test
// requires at least 100.
func TestOfflineEqualsOnline(t *testing.T) {
	s := core.NewSurvey(core.SmallSurveyOptions())
	s.RunBoth()
	dir := t.TempDir()
	for _, online := range []*core.Result{s.SURF, s.Internet2} {
		path := filepath.Join(dir, "rounds.json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range online.Rounds {
			if err := s.Prober.WriteJSON(f, rd); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		offline, err := classifyFile(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		compared := 0
		for _, want := range online.PerPrefix {
			if want.Prefix.Bits() != 24 {
				continue
			}
			compared++
			got := offline.Find(want.Prefix)
			switch {
			case got == nil:
				t.Errorf("%s: %s missing offline", online.Name, want.Prefix)
			case got.Inference != want.Inference || !slices.Equal(got.Seq, want.Seq):
				t.Errorf("%s: %s offline %v %v, online %v %v",
					online.Name, want.Prefix, got.Inference, got.Seq, want.Inference, want.Seq)
			}
		}
		t.Logf("%s: %d of %d probed prefixes are /24s, compared offline", online.Name, compared, len(online.PerPrefix))
		if compared < 100 {
			t.Errorf("%s: only %d /24 prefixes compared, want >= 100", online.Name, compared)
		}
	}
}

func TestClassifyFile(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "june.json", false)
	res, err := classifyFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPrefix) == 0 {
		t.Fatal("no prefixes classified")
	}
	counts := map[core.Inference]int{}
	for _, pr := range res.PerPrefix {
		counts[pr.Inference]++
	}
	total := len(res.PerPrefix) - counts[core.InfUnresponsive]
	re := counts[core.InfAlwaysRE]
	if re*100 < total*70 {
		t.Errorf("Always R&E = %d of %d, implausibly low", re, total)
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	a := writeFixture(t, dir, "surf.json", true)
	b := writeFixture(t, dir, "june.json", false)
	if err := runCompare(a, b, 2); err != nil {
		t.Fatal(err)
	}
	if err := runCompare(a, filepath.Join(dir, "missing.json"), 2); err == nil {
		t.Error("missing file should error")
	}
}

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "one.json", false)
	if err := run(cliconf.Config{JobOptions: core.JobOptions{Workers: 2}}, []string{path}); err != nil {
		t.Fatal(err)
	}
	if err := run(cliconf.Config{}, []string{filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("missing file should error")
	}
	// Empty input yields a diagnosed error.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(cliconf.Config{}, []string{empty}); err == nil {
		t.Error("empty input should error")
	}
}

// TestMissingRoundReadsAsLoss pins the paper's rule offline as the live
// survey applies it: a prefix with no record in one round did not
// answer in every round, so it is excluded — not classified over the
// eight rounds it does appear in, with every later round index shifted
// down by one.
func TestMissingRoundReadsAsLoss(t *testing.T) {
	gap := netutil.MustParsePrefix("10.0.0.0/24")
	whole := netutil.MustParsePrefix("10.0.1.0/24")
	const switchAt = 5 // both prefixes answer on commodity, then on R&E from here
	path := filepath.Join(t.TempDir(), "gap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	pr := &probe.Prober{SrcAddr: "163.253.63.63"}
	for i, cfg := range core.Schedule() {
		vlan := simnet.VLANCommodity
		if i >= switchAt {
			vlan = simnet.VLANRE
		}
		rd := &probe.Round{Config: cfg.Label()}
		for _, p := range []netutil.Prefix{gap, whole} {
			if p == gap && i == 2 {
				continue // round 3 of 9 holds nothing for this prefix
			}
			rd.Records = append(rd.Records, probe.Record{
				Prefix: p, Dst: p.Addr() + 1, SentAt: bgp.Time(3600 * (i + 1)), Responded: true, VLAN: vlan,
			})
		}
		if err := pr.WriteJSON(f, rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := classifyFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inf := res.Find(gap).Inference; inf != core.InfUnresponsive {
		t.Errorf("prefix missing one round classified %v, want %v", inf, core.InfUnresponsive)
	}
	if inf := res.Find(whole).Inference; inf != core.InfSwitchToRE {
		t.Errorf("complete prefix classified %v, want %v", inf, core.InfSwitchToRE)
	}
	if got := core.SwitchConfig(res.Find(whole).Seq); got != switchAt {
		t.Errorf("complete prefix switches at round %d, want %d", got, switchAt)
	}
	seq := res.Find(gap).Seq
	if len(seq) != len(core.Schedule()) || seq[2] != core.ObsLoss ||
		seq[switchAt-1] != core.ObsCommodity || seq[switchAt] != core.ObsRE {
		t.Errorf("gapped prefix observed %v: want loss at round 2 and the change still at round %d", seq, switchAt)
	}
}
