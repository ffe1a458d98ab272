// Command reinfer classifies saved probe results: it reads the
// scamper-style JSON produced by resurvey -json (or reprobe runs
// concatenated across configurations) into rounds that keep their
// records (probe.ReadJSON: the record layout of probe.Round, which
// core.Observe groups by prefix itself, where a survey's own rounds
// keep two-byte slots), reduces each prefix's per-round response
// interfaces to the paper's Table 1 categories, and prints the summary. This is the offline half of the method: given the data
// plane observations, infer relative route preference.
//
// Usage:
//
//	reinfer [-workers N] [-manifest out.json] [-metrics] [file.json ...]
//	                                 (stdin when no files given)
//	reinfer -compare a.json b.json   (Table 2-style comparison)
//
// The shared flags behave exactly as in resurvey: -workers bounds the
// classification shard workers (0 = GOMAXPROCS, output identical for
// any value); -manifest/-metrics snapshot the classification counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	var cfg cliconf.Config
	cliconf.Register(flag.CommandLine, &cfg, cliconf.FlagWorkers|cliconf.FlagObservability)
	compare := flag.Bool("compare", false, "compare two experiments' inferences prefix by prefix")
	flag.Parse()

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "reinfer:", err)
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *compare {
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs exactly two files")
		} else {
			err = runCompare(flag.Arg(0), flag.Arg(1), cfg.Workers)
		}
	} else {
		err = run(cfg, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reinfer:", err)
		os.Exit(1)
	}
}

// attribute assigns a probe to its covering /24. Without the ecosystem
// that is the best guess — the dominant prefix size in the survey. Real
// deployments would attribute against the announced prefix list.
func attribute(addr uint32) (netutil.Prefix, bool) {
	return netutil.PrefixFrom(addr, 24), true
}

// classifyFile loads one experiment's probe JSON and classifies every
// prefix.
func classifyFile(name string, workers int) (*core.Result, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rounds, err := probe.ReadJSON(f, attribute)
	if err != nil {
		return nil, err
	}
	return classify(rounds, workers, nil), nil
}

// classify rebuilds what saved rounds hold of a core.Result — the
// rounds and their per-prefix classification — through the live
// survey's own path: core.Observe, under which a prefix with no record
// in some round reads as loss there (so it is excluded rather than
// classified over a shortened sequence), then core.ClassifyAll at the
// paper's strict rule (quorum 0).
func classify(rounds []probe.Round, workers int, reg *telemetry.Registry) *core.Result {
	res := &core.Result{Rounds: make([]*probe.Round, len(rounds))}
	for i := range rounds {
		res.Rounds[i] = &rounds[i]
	}
	res.PerPrefix = core.Observe(res.Rounds, 0)
	core.ClassifyAll(res.PerPrefix, 0, workers, reg)
	return res
}

// runCompare prints the Table 2-style agreement between two runs.
func runCompare(fileA, fileB string, workers int) error {
	a, err := classifyFile(fileA, workers)
	if err != nil {
		return err
	}
	b, err := classifyFile(fileB, workers)
	if err != nil {
		return err
	}
	comparable := []core.Inference{core.InfAlwaysCommodity, core.InfAlwaysRE, core.InfSwitchToRE}
	isComparable := func(i core.Inference) bool {
		for _, c := range comparable {
			if i == c {
				return true
			}
		}
		return false
	}
	matrix := make(map[core.Inference]map[core.Inference]int)
	for _, x := range comparable {
		matrix[x] = make(map[core.Inference]int)
	}
	same, total, incomparable := 0, 0, 0
	for _, pa := range a.PerPrefix {
		pb := b.Find(pa.Prefix)
		if pb == nil {
			continue
		}
		ia, ib := pa.Inference, pb.Inference
		if !isComparable(ia) || !isComparable(ib) {
			incomparable++
			continue
		}
		total++
		matrix[ia][ib]++
		if ia == ib {
			same++
		}
	}
	t := &report.Table{
		Title:   "Cross-experiment comparison (" + fileA + " vs " + fileB + ")",
		Headers: []string{"First", "Second", "Prefixes", ""},
	}
	for _, x := range comparable {
		for _, y := range comparable {
			if n := matrix[x][y]; n > 0 {
				t.AddRow(x.String(), y.String(), fmt.Sprint(n), report.Pct(n, total))
			}
		}
	}
	t.AddRow("Same:", "", fmt.Sprint(same), report.Pct(same, total))
	t.AddRow("Comparable:", "", fmt.Sprint(total), "")
	t.AddRow("Incomparable:", "", fmt.Sprint(incomparable), "")
	fmt.Println(t)
	return nil
}

func run(c cliconf.Config, files []string) error {
	reg := c.NewRegistry()
	reg.SetWorkers(parallel.Workers(c.Workers))
	var readers []io.Reader
	if len(files) == 0 {
		readers = append(readers, os.Stdin)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		readers = append(readers, f)
	}

	var rounds []probe.Round
	for _, r := range readers {
		rs, err := probe.ReadJSON(r, attribute)
		if err != nil {
			return err
		}
		rounds = append(rounds, rs...)
	}
	if len(rounds) == 0 {
		return fmt.Errorf("no probe rounds in input")
	}
	fmt.Printf("loaded %d rounds: ", len(rounds))
	for i, rd := range rounds {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s (%d probes)", rd.Config, rd.Len())
	}
	fmt.Println()

	counts := make(map[core.Inference]int)
	total := 0
	for _, pr := range classify(rounds, c.Workers, reg).PerPrefix {
		counts[pr.Inference]++
		if pr.Inference != core.InfUnresponsive {
			total++
		}
	}
	t := &report.Table{
		Title:   "Inference summary",
		Headers: []string{"Inference", "Prefixes", ""},
	}
	for _, inf := range []core.Inference{
		core.InfAlwaysRE, core.InfAlwaysCommodity, core.InfSwitchToRE,
		core.InfSwitchToCommodity, core.InfMixed, core.InfOscillating,
	} {
		t.AddRow(inf.String(), fmt.Sprint(counts[inf]), report.Pct(counts[inf], total))
	}
	t.AddRow("(excluded: packet loss)", fmt.Sprint(counts[core.InfUnresponsive]), "")
	t.AddRow("Total classified:", fmt.Sprint(total), "")
	fmt.Println(t)
	if err := c.WriteManifest(reg, struct {
		Files []string `json:"files"`
	}{Files: files}); err != nil {
		return err
	}
	return c.DumpMetrics(os.Stdout, reg)
}
