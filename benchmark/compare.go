package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of --compare, per end-to-end metric and workload.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	// verdictUnresolved: the run-to-run spread is wider than the bound,
	// so "no worse" cannot be told from "worse".
	verdictUnresolved = "unresolved"
)

// side summarises one set's values of one metric on one workload.
type side struct {
	N      int
	Median float64
	Q1, Q3 float64
}

func summarise(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

// comparison is one row of --compare's output.
type comparison struct {
	Workload, Metric string
	A, B             side
	// Worse is how much B's median is worse than A's, as a share of A's
	// (negative when B is better).
	Worse   float64
	Bound   float64
	Verdict string
}

// judge applies a metric's bound to two sets of its values. Where the
// spread of either set exceeds the bound the pair is unresolved,
// unless every value of b is better than every value of a.
func judge(m metricSpec, a, b []float64) comparison {
	c := comparison{Metric: m.Name, A: summarise(a), B: summarise(b), Bound: m.Bound}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	c.Worse = sign * (c.B.Median - c.A.Median) / c.A.Median
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound && !allBetter:
		c.Verdict = verdictUnresolved
	case c.Worse > m.Bound:
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictOK
	}
	return c
}

// runKey identifies runs that must agree exactly on program-made
// counts: same workload, same seed.
type runKey struct {
	workload string
	seed     int64
}

// compareSets judges every end-to-end metric on every workload the two
// sets share, from their timed runs, and checks that exact counts and
// statistics hashes of equal (workload, seed) runs are identical.
func compareSets(sp *spec, a, b []record) (rows []comparison, exact []string) {
	values := func(recs []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload == workload && !r.Traced {
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, w.name, m.Name), values(b, w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(m, va, vb)
			c.Workload = w.name
			rows = append(rows, c)
		}
	}

	counts := func(recs []record) map[runKey]map[string]string {
		out := map[runKey]map[string]string{}
		for _, r := range recs {
			k := runKey{r.Workload, r.Seed}
			if out[k] == nil {
				out[k] = map[string]string{}
			}
			// Operation i has the same seed in every run of (workload,
			// seed), however many operations a run fitted in.
			for i, s := range r.Ops {
				out[k][fmt.Sprintf("statistics hash of op %d", i)] = s.Hash
			}
			for name, v := range r.Metrics {
				if r.Traced && exactMetrics[name] {
					out[k][name] = fmt.Sprint(v)
				}
			}
		}
		return out
	}
	ca, cb := counts(a), counts(b)
	for k, ma := range ca {
		for name, va := range ma {
			if vb, ok := cb[k][name]; ok && va != vb {
				exact = append(exact, fmt.Sprintf("%s seed %d: %s is %s in the first set and %s in the second", k.workload, k.seed, name, va, vb))
			}
		}
	}
	sort.Strings(exact)
	return rows, exact
}

// compareFiles is --compare: it prints one row per end-to-end metric
// and workload and returns 1 if any row is a regression or unresolved,
// or any exact count differs.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2][]record
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err == nil && len(recs) == 0 {
			err = fmt.Errorf("%s holds no records", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		sets[i] = recs
	}
	a, b := sets[0], sets[1]
	rows, exact := compareSets(sp, a, b)
	bad := len(exact)
	fmt.Fprintf(stdout, "%-13s %-16s %-11s %7s %7s  %s\n", "workload", "metric", "verdict", "worse", "bound", "first set | second set: median [q1, q3] n")
	for _, c := range rows {
		if c.Verdict != verdictOK {
			bad++
		}
		fmt.Fprintf(stdout, "%-13s %-16s %-11s %+6.1f%% %6.1f%%  %.6g [%.6g, %.6g] n=%d | %.6g [%.6g, %.6g] n=%d\n",
			c.Workload, c.Metric, c.Verdict, 100*c.Worse, 100*c.Bound,
			c.A.Median, c.A.Q1, c.A.Q3, c.A.N, c.B.Median, c.B.Q1, c.B.Q3, c.B.N)
	}
	for _, msg := range exact {
		fmt.Fprintln(stdout, "exact count differs:", msg)
	}
	if len(exact) == 0 {
		fmt.Fprintln(stdout, "exact counts and statistics hashes of equal (workload, seed) runs are identical")
	}
	if bad > 0 {
		return 1
	}
	return 0
}
