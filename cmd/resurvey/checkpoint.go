package main

// Checkpoint/restart for resurvey. The RCKP codec lives in
// internal/core (core.Checkpoint) so the resident service shares it;
// this file keeps only what is CLI-specific: mapping flags to the
// configuration fingerprint and managing the -snapshot-dir files.
// -resume rebuilds the world from the same flags, restores the newest
// valid checkpoint into it, and continues; the finished run's stdout,
// manifest, and artifact bytes are identical to an uninterrupted run's.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func fingerprintOf(o options) core.CheckpointFingerprint {
	return core.CheckpointFingerprint{
		Seed:   o.Seed,
		Small:  o.Small,
		Faults: o.Faults,
		NSeeds: o.NSeeds,
	}
}

func checkpointName(phase, done int) string {
	return fmt.Sprintf("ckpt-%d-%02d.rckp", phase, done)
}

// writeCheckpoint persists one checkpoint atomically (temp + rename).
// Checkpoint I/O is deliberately invisible to telemetry and stdout —
// a resumed run must reproduce the uninterrupted run's bytes exactly —
// so failures only warn on stderr.
func writeCheckpoint(o options, reg *telemetry.Registry, s *core.Survey, ck core.SurveyCheckpoint) error {
	c, err := core.BuildCheckpoint(fingerprintOf(o), ck, s.Eco.Net, reg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.SnapshotDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.SnapshotDir, checkpointName(ck.Phase, ck.Done))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, c.Encode(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadLatestCheckpoint scans -snapshot-dir for the newest checkpoint
// this run can resume from, skipping unreadable or corrupt files (with
// a stderr note) in favour of the next-newest valid one. It returns
// nil when nothing usable exists — the caller cold-starts — plus the
// number of corrupt files skipped, which the caller surfaces as
// snapshot_checkpoint_corrupt_total once a registry is live.
func loadLatestCheckpoint(o options) (*core.Checkpoint, int) {
	entries, err := os.ReadDir(o.SnapshotDir)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "resurvey: resume:", err)
		}
		return nil, 0
	}
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() && filepath.Ext(name) == ".rckp" {
			names = append(names, name)
		}
	}
	// ckpt-<phase>-<done> names sort chronologically; walk newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	want := fingerprintOf(o)
	corrupt := 0
	for _, name := range names {
		path := filepath.Join(o.SnapshotDir, name)
		data, err := os.ReadFile(path)
		var c *core.Checkpoint
		if err == nil {
			c, err = core.DecodeCheckpoint(data)
		}
		if err != nil {
			corrupt++
			fmt.Fprintf(os.Stderr, "resurvey: checkpoint %s unusable, trying older: %v\n", name, err)
			continue
		}
		if c.Fingerprint != want {
			fmt.Fprintf(os.Stderr, "resurvey: checkpoint %s belongs to a different run configuration, skipping\n", name)
			continue
		}
		return c, corrupt
	}
	return nil, corrupt
}
