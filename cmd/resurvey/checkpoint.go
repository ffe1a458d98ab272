package main

// Checkpoint/restart for resurvey. The RCKP codec lives in
// internal/core (core.Checkpoint) so the resident service shares it;
// this file keeps only what is CLI-specific: mapping flags to the
// configuration fingerprint and managing the -snapshot-dir files.
// -resume rebuilds the world from the same flags, restores the newest
// usable checkpoint into it, and continues; the finished run's stdout,
// manifest, and artifact bytes are identical to an uninterrupted run's.

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/snapshot"
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

// writeCheckpoint persists one checkpoint atomically (see
// snapshot.WriteFileAtomic). Checkpoint I/O is deliberately invisible
// to telemetry and stdout — a resumed run must reproduce the
// uninterrupted run's bytes exactly — so failures only warn on stderr.
func writeCheckpoint(o options, reg *telemetry.Registry, s *core.Survey, ck core.SurveyCheckpoint) error {
	c, err := core.BuildCheckpoint(fingerprintOf(o), ck, s.Eco.Net, reg)
	if err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(o.SnapshotDir, checkpointName(ck.Phase, ck.Done), c.Encode())
}

// loadLatestCheckpoint scans -snapshot-dir for the newest checkpoint
// this run can resume from and restores its engine section into net,
// the freshly built world. A checkpoint is usable only if that restore
// succeeds: the fingerprint knows the flags but not the topology they
// built (-scale, a generator change), RestoreNetwork does — it refuses
// a snapshot of another network, or of a retired format, and leaves net
// untouched. Unreadable, corrupt and refused files are skipped with a
// stderr note in favour of the next-newest. It returns nil when nothing
// usable exists — the caller cold-starts on the untouched net — plus
// the number of files skipped as unusable, which the caller surfaces as
// snapshot_checkpoint_corrupt_total.
func loadLatestCheckpoint(o options, net *bgp.Network) (*core.Checkpoint, int) {
	want := fingerprintOf(o)
	var ck *core.Checkpoint
	corrupt, err := snapshot.NewestValid(o.SnapshotDir, ".rckp", func(name string, data []byte) (bool, error) {
		c, err := core.DecodeCheckpoint(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resurvey: checkpoint %s unusable, trying older: %v\n", name, err)
			return false, err
		}
		if c.Fingerprint != want {
			fmt.Fprintf(os.Stderr, "resurvey: checkpoint %s belongs to a different run configuration, skipping\n", name)
			return false, nil
		}
		// Telemetry is checked on a scratch registry first: once the
		// engine state is in net there is no falling back.
		if len(c.Telemetry) > 0 {
			if _, err := telemetry.New().LoadState(bytes.NewReader(c.Telemetry)); err != nil {
				fmt.Fprintf(os.Stderr, "resurvey: checkpoint %s telemetry unusable, trying older: %v\n", name, err)
				return false, err
			}
		}
		if err := bgp.RestoreNetwork(bytes.NewReader(c.Engine), net); err != nil {
			fmt.Fprintf(os.Stderr, "resurvey: checkpoint %s engine state unusable, trying older: %v\n", name, err)
			return false, err
		}
		ck = c
		return true, nil
	})
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, "resurvey: resume:", err)
	}
	return ck, corrupt
}
