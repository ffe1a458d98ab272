package topo

import (
	"fmt"
	"reflect"
	"testing"
)

func TestScaleStringParseRoundTrip(t *testing.T) {
	for _, s := range []Scale{ScaleSmall, ScalePaper, ScaleInternet} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	// Tolerant of case and whitespace (flag values arrive raw).
	if got, err := ParseScale("  Internet "); err != nil || got != ScaleInternet {
		t.Errorf("ParseScale tolerant form = %v, %v", got, err)
	}
	if _, err := ParseScale("planet"); err == nil {
		t.Error("ParseScale(planet) accepted")
	}
	if s := Scale(42).String(); s != "scale(42)" {
		t.Errorf("unknown scale String() = %q", s)
	}
}

func TestScaleConfig(t *testing.T) {
	if !reflect.DeepEqual(ScaleSmall.Config(), SmallConfig()) {
		t.Error("ScaleSmall.Config() != SmallConfig()")
	}
	if !reflect.DeepEqual(ScalePaper.Config(), DefaultConfig()) {
		t.Error("ScalePaper.Config() != DefaultConfig()")
	}
	ic := ScaleInternet.Config()
	if !reflect.DeepEqual(ic, InternetConfig()) {
		t.Error("ScaleInternet.Config() != InternetConfig()")
	}
	if !ic.CompactRIB || !ic.DensePrefixes {
		t.Error("InternetConfig must select the compact RIB and dense prefixes")
	}
	if err := ic.Validate(); err != nil {
		t.Errorf("InternetConfig does not validate: %v", err)
	}
}

// TestCompactRIBSameBestRoutes is the generator-level differential: the
// same small ecosystem built on the default layout and the arena layout
// must converge to identical best routes and forwarding decisions.
func TestCompactRIBSameBestRoutes(t *testing.T) {
	build := func(compact bool) *Ecosystem {
		cfg := SmallConfig()
		cfg.Seed = 11
		cfg.DensePrefixes = true
		cfg.CompactRIB = compact
		e := Build(cfg)
		e.Net.Originate(e.MeasCommodity.Router, e.MeasPrefix)
		e.Net.Originate(e.Internet2.Router, e.MeasPrefix)
		e.Net.RunToQuiescence()
		return e
	}
	ref, cmp := build(false), build(true)
	if !cmp.Net.CompactRIB() || ref.Net.CompactRIB() {
		t.Fatal("layout selection did not take")
	}
	if len(ref.ASes) != len(cmp.ASes) {
		t.Fatalf("AS counts differ: %d vs %d", len(ref.ASes), len(cmp.ASes))
	}
	diffs := 0
	for i, info := range ref.ASes {
		rBest := ref.Net.Speaker(info.Router).Best(ref.MeasPrefix)
		cBest := cmp.Net.Speaker(cmp.ASes[i].Router).Best(cmp.MeasPrefix)
		rs, cs := "<none>", "<none>"
		if rBest != nil {
			rs = fmt.Sprintf("%v via %d lp=%d", rBest.Path, rBest.From, rBest.LocalPref)
		}
		if cBest != nil {
			cs = fmt.Sprintf("%v via %d lp=%d", cBest.Path, cBest.From, cBest.LocalPref)
		}
		if rs != cs {
			diffs++
			if diffs <= 5 {
				t.Errorf("AS %v best differs: map %s, arena %s", info.AS, rs, cs)
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d best-route differences between layouts", diffs)
	}
}
