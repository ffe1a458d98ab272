package main

// Checkpoint/restart for resurvey. The RCKP codec and the
// checkpoint-directory helpers live in internal/core (core.Checkpoint,
// core.WriteCheckpoint, core.LatestCheckpoint) so the resident service
// shares them; this file keeps only what is CLI-specific: mapping flags
// to the configuration fingerprint. -resume rebuilds the world from the
// same flags, restores the newest usable checkpoint into it, and
// continues; the finished run's stdout, manifest, and artifact bytes
// are identical to an uninterrupted run's.

import "repro/internal/core"

func fingerprintOf(o options) core.CheckpointFingerprint {
	return core.CheckpointFingerprint{
		Seed:   o.Seed,
		Small:  o.Small,
		Faults: o.Faults,
		NSeeds: o.NSeeds,
	}
}
