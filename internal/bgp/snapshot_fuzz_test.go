package bgp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	snap "repro/internal/snapshot"
)

// fuzzSeedInputs builds the seed corpus of FuzzSnapshotDecode: a valid
// snapshot, that snapshot truncated at every section boundary, one
// with a flipped CRC byte, one claiming a future format version, and
// the two frozen fixtures of retired layouts.
func fuzzSeedInputs(t testing.TB) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := goldenNet().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	inputs := [][]byte{valid}
	secs, err := snap.DecodeSections(valid, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	off := len(snap.EngineMagic) + 2
	inputs = append(inputs, valid[:off])
	for _, s := range secs {
		off += 1 + uvarintLen(uint64(len(s.Payload))) + len(s.Payload) + 4
		inputs = append(inputs, valid[:off])
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	inputs = append(inputs, flipped)
	future := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(future[4:], snap.EngineVersion+1)
	inputs = append(inputs, future)
	// The two retired layouts stay in the corpus as refusal seeds: the
	// frozen v1 golden file (refused by version) and the frozen v2
	// snapshot that still lists decision-cache entries (refused at the
	// reserved count, after every section before it decoded). Mutating
	// them explores the refusals' neighbourhood.
	for _, name := range []string{"golden_v1.rbgp", "legacy_v2_deccache.rbgp"} {
		if retired, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			inputs = append(inputs, retired)
		}
	}
	return inputs
}

// FuzzSnapshotDecode feeds arbitrary bytes to RestoreNetwork, on a
// row-table base and on an arena base, whose route table decodes to
// packed records: the decoder must return an error or restore a
// consistent network — never panic, and never allocate past the
// input's own size class.
func FuzzSnapshotDecode(f *testing.F) {
	for _, in := range fuzzSeedInputs(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, compact := range []bool{false, true} {
			base := mraiRfdNetOn(compact)
			if err := RestoreNetwork(bytes.NewReader(data), base); err != nil {
				continue
			}
			// A successful restore must leave a network the engine can
			// drain and re-snapshot without error.
			base.RunToQuiescence()
			var buf bytes.Buffer
			if err := base.Snapshot(&buf); err != nil {
				t.Fatalf("compact=%v: restored network failed to re-snapshot: %v", compact, err)
			}
		}
	})
}

// TestWriteFuzzCorpus materializes the seed inputs as a committed
// corpus under testdata/fuzz/FuzzSnapshotDecode (regenerate with
// -update), so the corner cases run on every plain `go test`, not just
// under -fuzz.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	inputs := fuzzSeedInputs(t)
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) < len(inputs) {
		t.Fatalf("committed corpus incomplete (%d entries, want >= %d): regenerate with -update (%v)", len(entries), len(inputs), err)
	}
}
