package core

// The reference for Observe's grouping: Observe as it stood when every
// round's record positions went through one full sort on (prefix,
// destination under a target budget, position), kept verbatim apart
// from its name, from reading each round's records through
// expandRecords and from handing firstTargets the records'
// destinations, and the differential that holds Observe's prober-
// layout path equal to it.

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netutil"
	"repro/internal/probe"
)

// referenceObserve is Observe with one full sort per round.
func referenceObserve(rounds []*probe.Round, maxTargets int) []*PrefixResult {
	var (
		rows   []*PrefixResult
		order  []int32 // positions in the round's Records, reused across rounds
		starts []int32 // where each prefix's group begins in order, reused
		pool   []PrefixResult
		seqs   []RoundObs
	)
	for i, rd := range rounds {
		recs := expandRecords(rd)
		order = order[:0]
		for j := range recs {
			order = append(order, int32(j))
		}
		slices.SortFunc(order, func(a, b int32) int {
			ra, rb := &recs[a], &recs[b]
			if c := netutil.ComparePrefixes(ra.Prefix, rb.Prefix); c != 0 {
				return c
			}
			if maxTargets > 0 && ra.Dst != rb.Dst {
				return cmp.Compare(ra.Dst, rb.Dst)
			}
			return cmp.Compare(a, b)
		})
		starts = starts[:0]
		for k, j := range order {
			if k == 0 || recs[j].Prefix != recs[order[k-1]].Prefix {
				starts = append(starts, int32(k))
			}
		}
		groups := len(starts)
		starts = append(starts, int32(len(order)))
		// Rows [0, known) are sorted; this round's new prefixes are
		// appended after them, in canonical order.
		known, next, found := len(rows), 0, false
		for g := 0; g < groups; g++ {
			group := order[starts[g]:starts[g+1]]
			p := recs[group[0]].Prefix
			var row *PrefixResult
			if next, found = seek(rows[:known], next, p); found {
				row = rows[next]
			} else {
				if len(pool) == 0 {
					// The round's remaining groups bound its new rows;
					// rows and sequences come from one allocation each.
					n := groups - g
					pool, seqs = make([]PrefixResult, n), make([]RoundObs, n*len(rounds))
				}
				row = &pool[0]
				row.Prefix, row.Seq = p, seqs[:len(rounds):len(rounds)]
				pool, seqs = pool[1:], seqs[len(rounds):]
				rows = append(rows, row)
			}
			for _, j := range firstTargets(group, maxTargets, func(j int32) uint32 { return recs[j].Dst }) {
				row.Seq[i] |= observe(&recs[j])
			}
		}
		if known > 0 && len(rows) > known {
			slices.SortFunc(rows, func(a, b *PrefixResult) int { return netutil.ComparePrefixes(a.Prefix, b.Prefix) })
		}
	}
	return rows
}

// TestObserveMatchesFullSort holds Observe's rows equal to the full
// sort's for budgets 0-4 on rounds in the prober's layout (where
// Observe sorts at most each prefix's run), on the same rounds
// shuffled, with their runs in descending prefix order, with one
// prefix split into two runs, and with destinations repeated within a
// prefix's run out of address order (a destination's records count
// once against the budget).
func TestObserveMatchesFullSort(t *testing.T) {
	s := getSurvey(t)
	prober := append(slices.Clone(s.SURF.Rounds), s.Internet2.Rounds...)
	derive := func(edit func(i int, recs []probe.Record) []probe.Record) []*probe.Round {
		out := make([]*probe.Round, len(prober))
		for i, rd := range prober {
			out[i] = &probe.Round{Config: rd.Config, Start: rd.Start, End: rd.End, Records: edit(i, expandRecords(rd))}
		}
		return out
	}
	// runs returns where each prefix's run of recs begins, plus len(recs).
	runs := func(recs []probe.Record) []int {
		var at []int
		for j := range recs {
			if j == 0 || recs[j].Prefix != recs[j-1].Prefix {
				at = append(at, j)
			}
		}
		return append(at, len(recs))
	}
	rng := rand.New(rand.NewSource(50)) // #nosec test randomness
	cases := []struct {
		name   string
		rounds []*probe.Round
	}{
		{"prober layout", prober},
		{"shuffled", derive(func(_ int, recs []probe.Record) []probe.Record {
			rng.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
			return recs
		})},
		{"runs descending", derive(func(_ int, recs []probe.Record) []probe.Record {
			at := runs(recs)
			out := make([]probe.Record, 0, len(recs))
			for g := len(at) - 2; g >= 0; g-- {
				out = append(out, recs[at[g]:at[g+1]]...)
			}
			return out
		})},
		{"prefix split in two runs", derive(func(i int, recs []probe.Record) []probe.Record {
			// The first record of a run of two or more moves to the end
			// of the round, after every other prefix.
			at := runs(recs)
			for g := (i * 7) % (len(at) - 1); g < len(at)-1; g++ {
				if at[g+1]-at[g] > 1 {
					moved := recs[at[g]]
					return append(slices.Delete(recs, at[g], at[g]+1), moved)
				}
			}
			t.Fatalf("round %d has no prefix with two records", i)
			return nil
		})},
		{"repeated destinations", derive(func(_ int, recs []probe.Record) []probe.Record {
			// Every run of two or more: its last record takes its first
			// record's destination, and a run of three or more also
			// swaps its first two destinations, so no run is in address
			// order and ties must fall back to position.
			at := runs(recs)
			for g := 0; g < len(at)-1; g++ {
				run := recs[at[g]:at[g+1]]
				if len(run) > 1 {
					run[len(run)-1].Dst = run[0].Dst
				}
				if len(run) > 2 {
					run[0].Dst, run[1].Dst = run[1].Dst, run[0].Dst
				}
			}
			return recs
		})},
	}
	for _, c := range cases {
		for k := 0; k <= 4; k++ {
			got, want := Observe(c.rounds, k), referenceObserve(c.rounds, k)
			if len(want) == 0 {
				t.Fatalf("%s, maxTargets %d: no rows to compare", c.name, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, maxTargets %d: Observe's rows differ from the full sort's", c.name, k)
			}
		}
	}
}
