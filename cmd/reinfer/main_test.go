package main

import (
	"os"
	"path/filepath"
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

func TestClassifyFile(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "june.json", false)
	infs, err := classifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(infs) == 0 {
		t.Fatal("no prefixes classified")
	}
	counts := map[core.Inference]int{}
	for _, inf := range infs {
		counts[inf]++
	}
	total := len(infs) - counts[core.InfUnresponsive]
	re := counts[core.InfAlwaysRE]
	if re*100 < total*70 {
		t.Errorf("Always R&E = %d of %d, implausibly low", re, total)
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	a := writeFixture(t, dir, "surf.json", true)
	b := writeFixture(t, dir, "june.json", false)
	if err := runCompare(a, b); err != nil {
		t.Fatal(err)
	}
	if err := runCompare(a, filepath.Join(dir, "missing.json")); err == nil {
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

	infs, err := classifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if infs[gap] != core.InfUnresponsive {
		t.Errorf("prefix missing one round classified %v, want %v", infs[gap], core.InfUnresponsive)
	}
	if infs[whole] != core.InfSwitchToRE {
		t.Errorf("complete prefix classified %v, want %v", infs[whole], core.InfSwitchToRE)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	rounds, err := probe.ReadJSON(in, func(addr uint32) (netutil.Prefix, bool) {
		return netutil.PrefixFrom(addr, 24), true
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := observe(rounds)
	if got := core.SwitchConfig(obs[whole]); got != switchAt {
		t.Errorf("complete prefix switches at round %d, want %d", got, switchAt)
	}
	seq := obs[gap]
	if len(seq) != len(core.Schedule()) || seq[2] != core.ObsLoss ||
		seq[switchAt-1] != core.ObsCommodity || seq[switchAt] != core.ObsRE {
		t.Errorf("gapped prefix observed %v: want loss at round 2 and the change still at round %d", seq, switchAt)
	}
}
