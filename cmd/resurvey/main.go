// Command resurvey runs the full reproduction of "R&E Routing Policy:
// Inference and Implication" (IMC 2025): it generates the synthetic
// R&E ecosystem, runs both measurement experiments (SURF-style and
// Internet2-style), and prints every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	resurvey [-small] [-seed N] [-workers N] [-json dir] [-mrt dir]
//	         [-faults I] [-manifest out.json] [-metrics] [-pprof addr]
//	         [-snapshot-dir dir] [-resume]
//
// -small runs the reduced test-scale ecosystem; -json writes the
// scamper-style probe results per round; -mrt writes collector RIB
// and update dumps; -faults I (intensity in (0, 1]) additionally runs
// the fault-intensity sweep up to I and prints the
// accuracy-vs-intensity table; -workers N bounds the shard workers of
// the probing, classification, and fault-sweep loops (0 = GOMAXPROCS)
// — output is byte-identical for any value.
//
// Checkpoint/restart: -snapshot-dir writes an engine+telemetry
// checkpoint after every configuration round; -resume continues from
// the latest usable checkpoint there (falling back past corrupt files
// and files whose engine state belongs to another topology, such as a
// different -scale, and to a cold start when none is usable),
// reproducing the uninterrupted run's output byte for byte at any
// worker count.
//
// Workloads: -workload NAME runs a named virtual-clock workload
// (update-storm, flap-cascade-rfd, diurnal-churn, hijack-flash, or
// replay with -trace file.mrt) through the discrete-event engine
// instead of the survey script; -duration overrides its virtual horizon,
// -round selects the round-granularity compatibility mode, and
// -rov F deploys RPKI origin validation at that fraction first (what
// hijack-flash's forgeries run into). Workload output is deterministic
// and byte-identical at any -workers width.
//
// Scenarios: -scenario {hijack,leak} replaces the survey script with
// an adversarial scenario sweep — the schedule (a forged-origin hijack
// of the measurement prefix, or a Gao-Rexford-violating route leak) is
// injected mid-window at every RPKI ROV adoption point and the
// polluted/clean catchment is reported per adoption; -rov F caps the
// adoption ladder at F (0 keeps the full {0, 0.25, 0.5, 0.75, 1}
// ladder).
//
// Observability: -manifest snapshots the run (seed, options, version,
// phase durations, worker/shard timings, every metric) to
// deterministic JSON; -metrics prints a Prometheus-style text
// exposition at exit; -pprof serves net/http/pprof on the given
// address for live profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"

	"repro/internal/cliconf"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// options bundles every flag of one invocation: the shared pipeline
// flags (cliconf) plus resurvey's own artifact outputs.
type options struct {
	cliconf.Config
	JSONDir string
	MRTDir  string
	NSeeds  int
	Dataset string
	PProf   string
	Trace   string
}

func main() {
	o := options{Config: cliconf.Config{JobOptions: core.JobOptions{Seed: 1}}}
	cliconf.Register(flag.CommandLine, &o.Config, cliconf.FlagAll|cliconf.FlagSnapshot|cliconf.FlagWorkload|cliconf.FlagScenario)
	flag.StringVar(&o.JSONDir, "json", "", "directory for scamper-style probe JSON")
	flag.StringVar(&o.MRTDir, "mrt", "", "directory for MRT collector dumps")
	flag.IntVar(&o.NSeeds, "seeds", 1, "additionally rerun the survey across N generator seeds (reduced scale) and report spread")
	flag.StringVar(&o.Dataset, "dataset", "", "write the gzip-compressed JSON dataset (the public-data-release analog) to this file")
	flag.StringVar(&o.PProf, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	flag.StringVar(&o.Trace, "trace", "", "MRT update file for '-workload replay' (as written by -mrt)")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "resurvey:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "resurvey:", err)
		os.Exit(1)
	}
}

// validate rejects flag combinations the pipeline cannot honour: the
// shared checks of cliconf.Config.Validate, which allow one run mode,
// plus resurvey's own flags (-seeds, -json, -mrt and -dataset only the
// survey script reads, -trace only a replay).
func (o options) validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.NSeeds < 1 {
		return fmt.Errorf("-seeds %d out of range: want >= 1", o.NSeeds)
	}
	if mode := o.Mode(); mode != core.ModeSurvey {
		if o.SnapshotDir != "" || o.Resume {
			return fmt.Errorf("-%s does not support -snapshot-dir/-resume", mode)
		}
		if o.NSeeds > 1 || o.JSONDir != "" || o.MRTDir != "" || o.Dataset != "" {
			return fmt.Errorf("-%s replaces the survey script; drop -seeds/-json/-mrt/-dataset", mode)
		}
	}
	if o.Workload == "replay" && o.Trace == "" {
		return fmt.Errorf("-workload replay requires -trace")
	}
	if o.Trace != "" && o.Workload != "replay" {
		return fmt.Errorf("-trace requires -workload replay")
	}
	return nil
}

// manifestOptions is the run configuration recorded in the manifest.
type manifestOptions struct {
	Small  bool               `json:"small"`
	Faults float64            `json:"faults"`
	NSeeds int                `json:"n_seeds"`
	Survey core.SurveyOptions `json:"survey"`
}

func run(w io.Writer, o options) error {
	// Telemetry is opt-in: without -manifest or -metrics the registry
	// stays nil and every instrumented path is a no-op.
	reg := o.NewRegistry()
	if o.PProf != "" {
		go func() {
			if err := http.ListenAndServe(o.PProf, nil); err != nil {
				fmt.Fprintln(os.Stderr, "resurvey: pprof:", err)
			}
		}()
		fmt.Fprintf(w, "pprof listening on http://%s/debug/pprof/\n", o.PProf)
	}

	switch o.Mode() {
	case core.ModeWorkload:
		return runWorkload(w, o, reg)
	case core.ModeScenario:
		return runScenario(w, o, reg)
	}

	pl := o.Pipeline(reg)
	fp := o.Fingerprint(o.NSeeds)
	resumeDir := ""
	if o.Resume {
		resumeDir = o.SnapshotDir
	}
	fmt.Fprintf(w, "building ecosystem (seed %d)...\n", o.Seed)
	s, corrupt, err := pl.OpenSurvey(resumeDir, fp, func(note string) {
		fmt.Fprintln(os.Stderr, "resurvey:", note)
	})
	if err != nil {
		return err
	}
	if corrupt > 0 {
		reg.Counter("snapshot_checkpoint_corrupt_total").Add(int64(corrupt))
	}
	if o.SnapshotDir != "" {
		// Checkpoint I/O is deliberately invisible to telemetry and
		// stdout — a resumed run must reproduce the uninterrupted run's
		// bytes exactly — so failures only warn on stderr.
		s.Checkpoint = func(ck *core.Checkpoint) {
			if err := core.WriteCheckpoint(o.SnapshotDir, fp, ck, s.Eco.Net, reg); err != nil {
				fmt.Fprintln(os.Stderr, "resurvey: checkpoint:", err)
			}
		}
	}
	st := s.Sel.Stats
	fmt.Fprintf(w, "  %d R&E-connected origin ASes; %d prefixes announced, %d excluded as entirely covered (§3.2), %d probed\n",
		s.OriginASes(), len(s.Eco.Prefixes), len(s.Eco.Prefixes)-st.Prefixes, st.Prefixes)
	fmt.Fprintf(w, "  %d with ISI seeds (%s), %d responsive (%s), %d with three targets (%s)\n\n",
		st.WithISISeed, report.Pct(st.WithISISeed, st.Prefixes),
		st.Responsive, report.Pct(st.Responsive, st.Prefixes),
		st.WithMaxTargets, report.Pct(st.WithMaxTargets, st.Responsive))

	fmt.Fprintln(w, "running SURF and Internet2 experiments...")
	if err := s.RunBothContext(context.Background()); err != nil {
		return err
	}
	fmt.Fprintln(w)

	a, err := core.Analyze(s)
	if err != nil {
		return err
	}
	a.WriteText(w)

	if o.Faults > 0 {
		// Robustness: how much fault intensity the inference tolerates
		// before Table 1's shape breaks, scored against generator ground
		// truth. Runs at reduced scale with fresh worlds per point; the
		// topology seed carries over so the sweep tracks the main run.
		fmt.Fprintln(w)
		fmt.Fprintf(w, "running fault-intensity sweep (reduced scale, up to %.2f)...\n", o.Faults)
		pts, err := pl.RunFaultSweepContext(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, core.FaultSweepTable(pts))
	}

	if o.NSeeds > 1 {
		var seedList []int64
		for i := 0; i < o.NSeeds; i++ {
			seedList = append(seedList, o.Seed+int64(i))
		}
		fmt.Fprintln(w, core.RunMultiSeed(core.SmallSurveyOptions(), seedList).Table())
	}

	if o.JSONDir != "" {
		if err := writeJSON(s, o.JSONDir); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nprobe JSON written to %s\n", o.JSONDir)
	}
	if o.MRTDir != "" {
		if err := writeMRT(s, o.MRTDir); err != nil {
			return err
		}
		fmt.Fprintf(w, "MRT dumps written to %s\n", o.MRTDir)
	}
	if o.Dataset != "" {
		f, err := os.Create(o.Dataset)
		if err != nil {
			return err
		}
		if err := core.WriteDataset(f, core.BuildDataset(s)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "dataset written to %s\n", o.Dataset)
	}

	return finish(w, o, reg, manifestOptions{
		Small:  o.Small,
		Faults: o.Faults,
		NSeeds: o.NSeeds,
		Survey: pl.SurveyOptions(),
	})
}

// finish ends every run mode: the -manifest, recording the mode's
// options, then the -metrics exposition.
func finish(w io.Writer, o options, reg *telemetry.Registry, manifestOpts any) error {
	if o.Manifest != "" {
		if err := o.WriteManifest(reg, manifestOpts); err != nil {
			return err
		}
		fmt.Fprintf(w, "manifest written to %s\n", o.Manifest)
	}
	return o.DumpMetrics(w, reg)
}

// workloadManifestOptions is the run configuration recorded in a
// workload run's manifest.
type workloadManifestOptions struct {
	Small           bool               `json:"small"`
	Workload        string             `json:"workload"`
	DurationSeconds int64              `json:"duration_seconds"`
	RoundMode       bool               `json:"round_mode"`
	Survey          core.SurveyOptions `json:"survey"`
}

// runWorkload drives a named virtual-clock workload instead of the
// survey script. Everything printed (and the manifest under -zerotime)
// is deterministic; the wall-derived speedup figure appears only
// without -zerotime, so byte-stable comparisons stay clean.
func runWorkload(w io.Writer, o options, reg *telemetry.Registry) error {
	pl := o.Pipeline(reg)
	wopts := o.WorkloadOptions()
	if o.Workload == "replay" {
		f, err := os.Open(o.Trace)
		if err != nil {
			return err
		}
		defer f.Close()
		wopts.Trace = f
	}

	fmt.Fprintf(w, "building ecosystem (seed %d)...\n", o.Seed)
	span := reg.StartSpan("workload")
	res, err := pl.RunWorkload(wopts)
	span.End()
	if err != nil {
		return err
	}
	core.WriteWorkloadReport(w, res)
	if !o.ZeroTime && res.SpeedupRatio > 0 {
		// Wall-derived, hence gated exactly like manifest durations.
		reg.Gauge("vtime_speedup_ratio").Set(res.SpeedupRatio)
		fmt.Fprintf(w, "  speedup: %.0fx virtual over wall\n", res.SpeedupRatio)
	}

	return finish(w, o, reg, workloadManifestOptions{
		Small:           o.Small,
		Workload:        o.Workload,
		DurationSeconds: int64(res.Duration),
		RoundMode:       o.RoundMode,
		Survey:          pl.SurveyOptions(),
	})
}

// scenarioManifestOptions is the run configuration recorded in a
// scenario run's manifest.
type scenarioManifestOptions struct {
	Small    bool               `json:"small"`
	Scenario string             `json:"scenario"`
	ROV      float64            `json:"rov"`
	Survey   core.SurveyOptions `json:"survey"`
}

// runScenario drives the adversarial scenario sweep instead of the
// survey script: baseline plus one Internet2-style run per ROV
// adoption point, reported as the catchment-vs-adoption table. Output
// (and the manifest under -zerotime) is deterministic and
// byte-identical at any -workers width.
func runScenario(w io.Writer, o options, reg *telemetry.Registry) error {
	pl := o.Pipeline(reg)
	fmt.Fprintf(w, "building ecosystems (seed %d)...\n", o.Seed)
	fmt.Fprintf(w, "running %s scenario sweep over ROV adoption (reduced scale)...\n", o.Scenario)
	span := reg.StartSpan("scenario")
	pts, err := pl.RunScenarioSweepContext(context.Background())
	span.End()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, core.ScenarioSweepTable(o.Scenario, pts))

	return finish(w, o, reg, scenarioManifestOptions{
		Small:    o.Small,
		Scenario: o.Scenario,
		ROV:      o.ROV,
		Survey:   pl.SurveyOptions(),
	})
}

func writeJSON(s *core.Survey, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pair := range []struct {
		name string
		res  *core.Result
	}{{"surf", s.SURF}, {"internet2", s.Internet2}} {
		f, err := os.Create(filepath.Join(dir, pair.name+".json"))
		if err != nil {
			return err
		}
		for _, round := range pair.res.Rounds {
			if err := s.Prober.WriteJSON(f, round); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeMRT(s *core.Survey, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Collector RIB snapshots for the measurement prefix.
	for i, col := range s.Eco.Collectors {
		rib := collector.Snapshot(s.Eco.Net, col, []netutil.Prefix{s.Eco.MeasPrefix})
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("rib-collector%d.mrt", i)))
		if err != nil {
			return err
		}
		if err := rib.WriteMRT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Update streams per experiment.
	for _, pair := range []struct {
		name string
		res  *core.Result
	}{{"surf", s.SURF}, {"internet2", s.Internet2}} {
		f, err := os.Create(filepath.Join(dir, "updates-"+pair.name+".mrt"))
		if err != nil {
			return err
		}
		if err := collector.WriteUpdates(f, pair.res.Churn); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
