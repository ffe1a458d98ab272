package faults

import (
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/simnet"
	"repro/internal/topo"
)

func testWindow() Window {
	return Window{Start: bgp.Time(9 * 3600), End: bgp.Time(9*3600 + 9*3600)}
}

func TestGenerateDeterministic(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	w := testWindow()
	a := Generate(eco, w, Config{Seed: 42, Intensity: 0.7})
	b := Generate(eco, w, Config{Seed: 42, Intensity: 0.7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and intensity produced different schedules")
	}
	c := Generate(eco, w, Config{Seed: 43, Intensity: 0.7})
	if reflect.DeepEqual(a, c) && !a.Empty() {
		t.Fatal("different seeds produced identical non-empty schedules")
	}
}

func TestGenerateZeroIntensityIsEmpty(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	for _, i := range []float64{0, -1} {
		s := Generate(eco, testWindow(), Config{Seed: 7, Intensity: i})
		if !s.Empty() {
			t.Fatalf("intensity %v: schedule not empty: %+v", i, s)
		}
		if len(NewInjector(s).actions) != 0 {
			t.Fatalf("intensity %v: injector has actions", i)
		}
	}
}

func TestGenerateFullIntensityPopulated(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	s := Generate(eco, testWindow(), Config{Seed: 1, Intensity: 1})
	if len(s.Sessions) == 0 {
		t.Error("no session faults at intensity 1")
	}
	if len(s.Brownouts) == 0 {
		t.Error("no brownouts at intensity 1")
	}
	w := s.Window
	for _, sf := range s.Sessions {
		if sf.Down < w.Start || sf.Up > w.End || sf.Up <= sf.Down {
			t.Errorf("session fault outside window: %+v", sf)
		}
	}
	for _, b := range s.Brownouts {
		if b.From < w.Start || b.To > w.End || b.Loss <= 0 || b.Loss > 1 {
			t.Errorf("bad brownout: %+v", b)
		}
	}
	for _, g := range s.FeedGaps {
		if g.From < w.Start || g.To > w.End {
			t.Errorf("feed gap outside window: %+v", g)
		}
	}
}

// Actions must be time-sorted, stay inside the window, and pair every
// down with an up on the same session.
func TestActionsSortedAndBalanced(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	s := Generate(eco, testWindow(), Config{Seed: 3, Intensity: 1})
	acts := s.Actions()
	if len(acts) == 0 {
		t.Fatal("no actions at intensity 1")
	}
	balance := make(map[[2]bgp.RouterID]int)
	for i, a := range acts {
		if i > 0 && a.At < acts[i-1].At {
			t.Fatalf("actions out of order at %d: %+v after %+v", i, a, acts[i-1])
		}
		if a.At < s.Window.Start || a.At > s.Window.End {
			t.Errorf("action outside window: %+v", a)
		}
		k := [2]bgp.RouterID{a.A, a.B}
		switch a.Kind {
		case ActSessionDown:
			balance[k]++
		case ActSessionUp:
			balance[k]--
		default:
			t.Errorf("unexpected non-session action: %+v", a)
		}
	}
	for k, v := range balance {
		if v != 0 {
			t.Errorf("session %v: %d unmatched down actions", k, v)
		}
	}
}

// With an empty schedule the injector must be indistinguishable from
// plain net.Run: same event counts, same clock.
func TestInjectorEmptyScheduleNoOp(t *testing.T) {
	build := func() *topo.Ecosystem {
		e := topo.Build(topo.SmallConfig())
		e.Net.RunToQuiescence()
		return e
	}
	ref := build()
	refEvents := ref.Net.Run(bgp.Time(10 * 3600))

	eco := build()
	in := NewInjector(Generate(eco, testWindow(), Config{Seed: 5, Intensity: 0}))
	in.Advance(eco.Net, bgp.Time(10*3600))
	in.Finish(eco.Net)
	if got := eco.Net.Now(); got != ref.Net.Now() {
		t.Errorf("clock diverged: injector %d, plain run %d", got, ref.Net.Now())
	}
	_ = refEvents
}

// A populated schedule must drive the network through every action and
// still reach quiescence with all sessions restored.
func TestInjectorAppliesAndRecovers(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	eco.Net.RunToQuiescence()
	w := testWindow()
	s := Generate(eco, w, Config{Seed: 11, Intensity: 1})
	if s.Empty() {
		t.Fatal("expected non-empty schedule")
	}
	world := simnet.BuildWorld(eco, simnet.DefaultWorldConfig())
	in := NewInjector(s)
	in.Install(world, eco.Net)
	for at := w.Start; at <= w.End; at += 3600 {
		in.Advance(eco.Net, at)
		eco.Net.RunTo(at)
	}
	in.Finish(eco.Net)
	if in.next != len(in.actions) {
		t.Fatalf("injector left %d of %d actions unapplied", len(in.actions)-in.next, len(in.actions))
	}
	in.Uninstall(world, eco.Net)
	if eco.Net.CollectorFeedDown != nil {
		t.Error("Uninstall left collector feed filter armed")
	}
}
