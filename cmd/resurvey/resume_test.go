package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// resumeOptions is the reduced-scale configuration the resume tests
// run: small world, fixed seed, -zerotime manifest for byte-stable
// comparison.
func resumeOptions(snapshotDir, manifest, mrtDir string, resume bool, workers int) options {
	return options{
		NSeeds: 1,
		MRTDir: mrtDir,
		Config: cliconf.Config{
			JobOptions:  core.JobOptions{Small: true, Seed: 1, Workers: workers},
			Manifest:    manifest,
			ZeroTime:    true,
			SnapshotDir: snapshotDir,
			Resume:      resume,
		},
	}
}

// TestResumeFlagValidation pins the cliconf contract: -resume without
// -snapshot-dir is a usage error.
func TestResumeFlagValidation(t *testing.T) {
	o := options{NSeeds: 1, Config: cliconf.Config{Resume: true}}
	if err := o.validate(); err == nil {
		t.Error("-resume without -snapshot-dir accepted, want usage error")
	}
	o.SnapshotDir = "somewhere"
	if err := o.validate(); err != nil {
		t.Errorf("-resume -snapshot-dir rejected: %v", err)
	}
}

// TestResumeNoCheckpoints covers the cold-start fallback: -resume with
// an empty (here: nonexistent) snapshot directory must behave exactly
// like an uninterrupted run — same stdout, same manifest — and must
// not count any corrupt checkpoints.
func TestResumeNoCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json") // shared: stdout echoes the path

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions("", p, "", false, 0)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	o := resumeOptions(filepath.Join(dir, "never-written"), p, "", true, 0)
	if err := run(&resumed, o); err != nil {
		t.Fatal(err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold run and -resume with no checkpoints:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	if !bytes.Equal(coldManifest, resumedManifest) {
		t.Errorf("manifest differs between cold run and -resume with no checkpoints")
	}
	m, err := telemetry.ReadManifest(bytes.NewReader(resumedManifest))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("snapshot_checkpoint_corrupt_total"); v != 0 {
		t.Errorf("snapshot_checkpoint_corrupt_total = %d on a clean cold-start fallback, want 0", v)
	}
}

// TestResumeCorruptCheckpoint covers the fallback chain: when the
// newest checkpoint is corrupt, -resume must fall back to the previous
// valid one, surface the skip via snapshot_checkpoint_corrupt_total,
// and still reproduce the uninterrupted run's stdout byte for byte.
func TestResumeCorruptCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	p := filepath.Join(dir, "m.json")

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions(ckDir, p, "", false, 0)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	names := checkpointFiles(t, ckDir)
	if len(names) < 2 {
		t.Fatalf("cold run wrote %d checkpoints, want >= 2 to exercise fallback", len(names))
	}
	// Flip one payload byte in the newest checkpoint: the section CRC
	// catches it and the loader must move on to the next-newest file.
	latest := filepath.Join(ckDir, names[len(names)-1])
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(latest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	if err := run(&resumed, resumeOptions(ckDir, p, "", true, 0)); err != nil {
		t.Fatal(err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold run and resume-after-corruption:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	m, err := telemetry.ReadManifest(bytes.NewReader(resumedManifest))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("snapshot_checkpoint_corrupt_total"); v != 1 {
		t.Errorf("snapshot_checkpoint_corrupt_total = %d, want 1 (one corrupt file skipped)", v)
	}
	// Everything except that counter must match the cold manifest.
	if !bytes.Equal(stripCorruptCounter(t, coldManifest), stripCorruptCounter(t, resumedManifest)) {
		t.Errorf("manifest (minus the corrupt counter) differs between cold run and resume-after-corruption")
	}
}

// TestResumeWorkersByteEqual is the acceptance check from the issue:
// a -resume run at -workers 4 must reproduce a cold -workers 1 run's
// stdout, manifest, and MRT artifact bytes exactly.
func TestResumeWorkersByteEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	mrtDir := filepath.Join(dir, "mrt") // shared: stdout echoes the path
	p := filepath.Join(dir, "m.json")

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions(ckDir, p, mrtDir, false, 1)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	coldMRT := readDirBytes(t, mrtDir)
	if len(coldMRT) == 0 {
		t.Fatal("cold run produced no MRT dumps")
	}

	var resumed bytes.Buffer
	if err := run(&resumed, resumeOptions(ckDir, p, mrtDir, true, 4)); err != nil {
		t.Fatal(err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	resumedMRT := readDirBytes(t, mrtDir)

	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold -workers 1 and -resume -workers 4:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	if !bytes.Equal(coldManifest, resumedManifest) {
		t.Errorf("manifest differs between cold -workers 1 and -resume -workers 4")
	}
	for name, cb := range coldMRT {
		if rb, ok := resumedMRT[name]; !ok {
			t.Errorf("resumed run missing MRT dump %s", name)
		} else if !bytes.Equal(cb, rb) {
			t.Errorf("MRT dump %s differs between cold and resumed run", name)
		}
	}
	for name := range resumedMRT {
		if _, ok := coldMRT[name]; !ok {
			t.Errorf("resumed run has extra MRT dump %s", name)
		}
	}
}

// TestResumeAcrossScales is the regression for `-scale small
// -snapshot-dir ck` followed by `-snapshot-dir ck -resume` at paper
// scale: the flags fingerprint is the same ({seed, small=false, ...}),
// the worlds are not. Every checkpoint in the directory must be
// refused against the paper-scale network — which stays as built, so
// the run cold-starts instead of dying after the telemetry state was
// merged (the run itself is TestResumeUnusableEngineColdStarts' path).
func TestResumeAcrossScales(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced pipeline and builds the paper-scale world")
	}
	ckDir := filepath.Join(t.TempDir(), "ck")
	small := resumeOptions(ckDir, "", "", false, 0)
	small.Small, small.Scale = false, "small"
	if err := run(io.Discard, small); err != nil {
		t.Fatal(err)
	}
	files := checkpointFiles(t, ckDir)
	if len(files) == 0 {
		t.Fatal("the small-scale run wrote no checkpoints")
	}

	paper := small
	paper.Scale, paper.Resume = "", true
	if paper.Fingerprint(paper.NSeeds) != small.Fingerprint(small.NSeeds) {
		t.Fatal("the two runs no longer share a fingerprint; this test needs another pair")
	}
	net := paper.Pipeline(nil).NewSurvey().Eco.Net
	before := net.EventsProcessed()
	ck, corrupt, _ := core.LatestCheckpoint(ckDir, paper.Fingerprint(paper.NSeeds), net, nil)
	if ck != nil || corrupt != len(files) {
		t.Fatalf("ck=%v corrupt=%d, want nil with all %d checkpoints refused", ck, corrupt, len(files))
	}
	if net.EventsProcessed() != before || net.Now() != 0 {
		t.Fatal("refused checkpoints modified the paper-scale network")
	}
}

// TestResumeUnusableEngineColdStarts: a directory holding only a
// checkpoint this run's flags match but whose engine section no
// decoder reads any more (the frozen RBGP v1 golden file). -resume
// must skip it, count it, and cold-start: exit 0 with the cold run's
// stdout and, the counter aside, its manifest.
func TestResumeUnusableEngineColdStarts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	p := filepath.Join(dir, "m.json")

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions(ckDir, p, "", false, 0)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	names := checkpointFiles(t, ckDir)
	data, err := os.ReadFile(filepath.Join(ckDir, names[len(names)-1]))
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine, err = os.ReadFile(filepath.Join("..", "..", "internal", "bgp", "testdata", "golden_v1.rbgp")); err != nil {
		t.Fatal(err)
	}
	v1Dir := filepath.Join(dir, "ck-v1")
	if err := os.Mkdir(v1Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1Dir, names[len(names)-1]), c.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	if err := run(&resumed, resumeOptions(v1Dir, p, "", true, 0)); err != nil {
		t.Fatalf("-resume over an unusable engine section: %v, want a cold start", err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold run and cold-start fallback:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	m, err := telemetry.ReadManifest(bytes.NewReader(resumedManifest))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("snapshot_checkpoint_corrupt_total"); v != 1 {
		t.Errorf("snapshot_checkpoint_corrupt_total = %d, want 1 (the refused checkpoint)", v)
	}
	if !bytes.Equal(stripCorruptCounter(t, coldManifest), stripCorruptCounter(t, resumedManifest)) {
		t.Errorf("manifest (minus the corrupt counter) differs between cold run and cold-start fallback")
	}
}

func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".rckp" {
			names = append(names, e.Name())
		}
	}
	return names
}

func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// stripCorruptCounter removes snapshot_checkpoint_corrupt_total — the
// one manifest field a resume-after-corruption run legitimately adds —
// and re-serializes for byte comparison.
func stripCorruptCounter(t *testing.T, raw []byte) []byte {
	t.Helper()
	m, err := telemetry.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	kept := m.Metrics.Counters[:0]
	for _, c := range m.Metrics.Counters {
		if c.Name == "snapshot_checkpoint_corrupt_total" {
			continue
		}
		kept = append(kept, c)
	}
	m.Metrics.Counters = kept
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
