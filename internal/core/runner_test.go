package core

import "testing"

// On the default small topology, pickOutages must find enough
// candidates that both experiments receive at least one injected
// outage.
func TestOutageSplitBothHalvesNonEmpty(t *testing.T) {
	s := NewSurvey(SmallSurveyOptions())
	outages := s.pickOutages()
	if len(outages) < 2 {
		t.Fatalf("only %d outage candidates on the small topology", len(outages))
	}
	first, second := SplitOutages(outages)
	if len(first) == 0 || len(second) == 0 {
		t.Errorf("empty half (%d/%d)", len(first), len(second))
	}
	if len(first)+len(second) != len(outages) {
		t.Errorf("split lost outages (%d+%d != %d)", len(first), len(second), len(outages))
	}
}

// The split must be the historical in-order halves, exactly.
func TestSplitOutagesSeedZeroIsInOrder(t *testing.T) {
	outages := []Outage{
		{A: 1, B: 2, DownRound: 6, UpRound: -1},
		{A: 3, B: 4, DownRound: 2, UpRound: 4},
		{A: 5, B: 6, DownRound: 6, UpRound: -1},
		{A: 7, B: 8, DownRound: 2, UpRound: 4},
	}
	first, second := SplitOutages(outages)
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("split %d/%d, want 2/2", len(first), len(second))
	}
	for i := range first {
		if first[i] != outages[i] {
			t.Errorf("first[%d] = %+v, want %+v", i, first[i], outages[i])
		}
		if second[i] != outages[2+i] {
			t.Errorf("second[%d] = %+v, want %+v", i, second[i], outages[2+i])
		}
	}
}
