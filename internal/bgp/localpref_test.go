package bgp

import (
	"bytes"
	"errors"
	"testing"
)

// TestSetImportLocalPrefRetroactive pins the optimizer's localpref
// lever on the Figure 1 scenario: lowering Columbia's preference for
// its R&E session mid-life must retroactively re-install the learned
// route and flip the best path to commodity, and restoring the old
// preference must flip it back — on the engine and on the full-scan
// reference.
func TestSetImportLocalPrefRetroactive(t *testing.T) {
	for _, inc := range []bool{false, true} {
		name := "full"
		if inc {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			f := buildFigure1(LocalPrefProvider + 20)
			f.net.SetReferenceScan(!inc)
			f.net.Originate(f.ucsd, ucsdPrefix)
			f.net.RunToQuiescence()

			reBest := f.net.Speaker(f.columbia).Best(ucsdPrefix)
			if reBest == nil || !reBest.Path.Contains(3754) {
				t.Fatalf("precondition: Columbia best should be the R&E path, got %v", reBest)
			}

			// Depreference the R&E session below the commodity provider.
			old := f.net.SetImportLocalPref(f.columbia, f.nysernet, LocalPrefProvider-20)
			f.net.RunToQuiescence()
			if old != LocalPrefProvider+20 {
				t.Errorf("SetImportLocalPref returned old=%d, want %d", old, LocalPrefProvider+20)
			}
			best := f.net.Speaker(f.columbia).Best(ucsdPrefix)
			if best == nil || !best.Path.Contains(174) {
				t.Fatalf("after depreference, Columbia best = %v, want commodity path via 174", best)
			}
			// The adj-RIB-in entry itself must carry the new preference
			// (applyImport bakes localpref in at arrival; the setter must
			// rewrite it, not just the session config).
			if r := f.net.Speaker(f.columbia).AdjIn(ucsdPrefix, f.nysernet); r == nil || r.LocalPref != LocalPrefProvider-20 {
				t.Fatalf("adj-RIB-in localpref = %v, want %d", r, LocalPrefProvider-20)
			}

			// Restore: the flip must reverse.
			f.net.SetImportLocalPref(f.columbia, f.nysernet, LocalPrefProvider+20)
			f.net.RunToQuiescence()
			best = f.net.Speaker(f.columbia).Best(ucsdPrefix)
			if best == nil || !best.Path.Contains(3754) {
				t.Fatalf("after restore, Columbia best = %v, want R&E path via 3754", best)
			}

			// Setting the current value is a no-op (returns it unchanged).
			st0 := f.net.Stats()
			if got := f.net.SetImportLocalPref(f.columbia, f.nysernet, LocalPrefProvider+20); got != LocalPrefProvider+20 {
				t.Errorf("no-op SetImportLocalPref returned %d", got)
			}
			if st1 := f.net.Stats(); st1.DecisionRuns != st0.DecisionRuns {
				t.Errorf("no-op SetImportLocalPref ran %d decisions", st1.DecisionRuns-st0.DecisionRuns)
			}
		})
	}
}

// TestSetImportLocalPrefMatchesFreshBuild: applying a localpref
// override mid-life must leave the speaker in the same observable
// state as building the network with that override from the start.
func TestSetImportLocalPrefMatchesFreshBuild(t *testing.T) {
	retro := buildFigure1(LocalPrefProvider + 20)
	retro.net.Originate(retro.ucsd, ucsdPrefix)
	retro.net.RunToQuiescence()
	retro.net.SetImportLocalPref(retro.columbia, retro.nysernet, LocalPrefCustomer+50)
	retro.net.RunToQuiescence()

	fresh := buildFigure1(LocalPrefCustomer + 50)
	fresh.net.Originate(fresh.ucsd, ucsdPrefix)
	fresh.net.RunToQuiescence()

	a := retro.net.Speaker(retro.columbia).Best(ucsdPrefix)
	b := fresh.net.Speaker(fresh.columbia).Best(ucsdPrefix)
	if !routesEqual(a, b) {
		t.Fatalf("retroactive best %v != fresh-build best %v", a, b)
	}
	ra := retro.net.Speaker(retro.columbia).AdjIn(ucsdPrefix, retro.nysernet)
	rb := fresh.net.Speaker(fresh.columbia).AdjIn(ucsdPrefix, fresh.nysernet)
	if !routesEqual(ra, rb) {
		t.Fatalf("retroactive adj-in %v != fresh-build adj-in %v", ra, rb)
	}
}

// TestSetImportLocalPrefFingerprint pins the snapshot contract the
// optimizer's evaluation loop depends on: ImportLocalPref is part of
// the restore fingerprint, so a candidate's override must be un-applied
// before rewinding to the pristine snapshot — and once un-applied, the
// restore must succeed.
func TestSetImportLocalPrefFingerprint(t *testing.T) {
	f := buildFigure1(LocalPrefProvider + 20)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()

	var snap bytes.Buffer
	if err := f.net.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	f.net.SetImportLocalPref(f.columbia, f.nysernet, LocalPrefProvider-20)
	f.net.RunToQuiescence()
	if err := RestoreNetwork(bytes.NewReader(snap.Bytes()), f.net); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("restore with a live localpref override: err = %v, want ErrSnapshotMismatch", err)
	}

	f.net.SetImportLocalPref(f.columbia, f.nysernet, LocalPrefProvider+20)
	if err := RestoreNetwork(bytes.NewReader(snap.Bytes()), f.net); err != nil {
		t.Fatalf("restore after un-applying the override: %v", err)
	}
	best := f.net.Speaker(f.columbia).Best(ucsdPrefix)
	if best == nil || !best.Path.Contains(3754) {
		t.Fatalf("restored best = %v, want the R&E path", best)
	}
}
