package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/probe"
	snap "repro/internal/snapshot"
)

// expandRecords is rd's records, rebuilt through a cursor in either
// layout.
func expandRecords(rd *probe.Round) []probe.Record {
	out := make([]probe.Record, 0, rd.Len())
	for c := rd.Cursor(); c.Next(); {
		out = append(out, *c.Record())
	}
	return out
}

// recordRound is rd in the record layout, what probe.ReadJSON and a
// checkpoint hand over.
func recordRound(rd *probe.Round) *probe.Round {
	return &probe.Round{Config: rd.Config, Start: rd.Start, End: rd.End, Records: expandRecords(rd)}
}

// inRecordLayout is a shallow copy of res with its rounds in the
// record layout. A resumed result keeps the rounds it decoded from its
// checkpoint in that layout and probes the rest, so it compares with a
// cold run's result in this form, every record field by field.
func inRecordLayout(res *Result) *Result {
	if res == nil {
		return nil
	}
	cp := *res
	cp.Rounds = make([]*probe.Round, len(res.Rounds))
	for i, rd := range res.Rounds {
		cp.Rounds[i] = recordRound(rd)
	}
	return &cp
}

// TestProberLayoutMatchesRecordLayout: every reader of a round gives
// the same answer, and every encoder the same bytes, on the survey's
// prober-made rounds as on their expansion into the record layout.
func TestProberLayoutMatchesRecordLayout(t *testing.T) {
	s := getSurvey(t)
	mixed := 0
	for _, res := range []*Result{s.SURF, s.Internet2} {
		expanded := &Result{Name: res.Name, PerPrefix: res.PerPrefix}
		for _, rd := range res.Rounds {
			if rd.Plan() == nil || rd.Records != nil {
				t.Fatalf("%s round %s: not in the prober layout", res.Name, rd.Config)
			}
			expanded.Rounds = append(expanded.Rounds, recordRound(rd))
		}
		for k := 0; k <= 3; k++ {
			if got, want := Observe(res.Rounds, k), Observe(expanded.Rounds, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s maxTargets %d: Observe differs between the layouts", res.Name, k)
			}
		}
		re, co := MixedRatio(res)
		if wantRE, wantCo := MixedRatio(expanded); re != wantRE || co != wantCo {
			t.Errorf("%s: MixedRatio %d:%d, record layout %d:%d", res.Name, re, co, wantRE, wantCo)
		}
		mixed += re + co
		if got, want := AnalyzeLatency(res), AnalyzeLatency(expanded); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: AnalyzeLatency %+v, record layout %+v", res.Name, got, want)
		}
		for i, rd := range res.Rounds {
			ex := expanded.Rounds[i]
			if rd.Len() != ex.Len() || rd.Responded() != ex.Responded() {
				t.Errorf("%s round %s: %d records, %d responded; record layout %d, %d",
					res.Name, rd.Config, rd.Len(), rd.Responded(), ex.Len(), ex.Responded())
			}
			for j := 0; j < rd.Len(); j++ {
				if rd.Record(j) != ex.Records[j] {
					t.Fatalf("%s round %s record %d: Record %+v, cursor %+v", res.Name, rd.Config, j, rd.Record(j), ex.Records[j])
				}
			}
			var got, want bytes.Buffer
			if err := s.Prober.WriteJSON(&got, rd); err != nil {
				t.Fatal(err)
			}
			if err := s.Prober.WriteJSON(&want, ex); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s round %s: WriteJSON bytes differ between the layouts", res.Name, rd.Config)
			}
			var gotCk, wantCk snap.Enc
			encCkRound(&gotCk, rd)
			encCkRound(&wantCk, ex)
			if !bytes.Equal(gotCk.Bytes(), wantCk.Bytes()) {
				t.Errorf("%s round %s: RCKP round bytes differ between the layouts", res.Name, rd.Config)
			}
		}
	}
	if mixed == 0 {
		t.Error("no mixed-prefix responses: MixedRatio compared nothing")
	}
}
