package snapshot

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func buildContainer() []byte {
	w := NewWriter(EngineMagic, 1)
	var e Enc
	e.U8(7)
	e.U64(1 << 40)
	e.String("hello")
	w.Section(1, e.Bytes())
	var e2 Enc
	e2.Uvarint(3)
	e2.F64(2.5)
	w.Section(2, e2.Bytes())
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildContainer()
	secs, err := ReadSections(bytes.NewReader(data), EngineMagic, 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(secs) != 2 || secs[0].ID != 1 || secs[1].ID != 2 {
		t.Fatalf("sections = %+v", secs)
	}
	d := NewDec(secs[0].Payload)
	if got := d.U8(); got != 7 {
		t.Errorf("u8 = %d", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("u64 = %d", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if err := d.Done(); err != nil {
		t.Errorf("done: %v", err)
	}
	d2 := NewDec(secs[1].Payload)
	if got := d2.Uvarint(); got != 3 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d2.F64(); got != 2.5 {
		t.Errorf("f64 = %v", got)
	}
	if err := d2.Done(); err != nil {
		t.Errorf("done: %v", err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	if !bytes.Equal(buildContainer(), buildContainer()) {
		t.Fatal("two identical encodes differ")
	}
}

func TestBadMagic(t *testing.T) {
	data := buildContainer()
	data[0] = 'X'
	if _, err := DecodeSections(data, EngineMagic, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// refusedByBothReaders asserts that a container written at version got
// is an ErrVersion to a decoder that reads version want, through
// either reader.
func refusedByBothReaders(t *testing.T, got, want uint16) {
	t.Helper()
	data := NewWriter(EngineMagic, got).Bytes()
	if _, err := DecodeSections(data, EngineMagic, want); !errors.Is(err, ErrVersion) {
		t.Errorf("DecodeSections v%d as v%d: err = %v, want ErrVersion", got, want, err)
	}
	if _, err := ReadSections(bytes.NewReader(data), EngineMagic, want); !errors.Is(err, ErrVersion) {
		t.Errorf("ReadSections v%d as v%d: err = %v, want ErrVersion", got, want, err)
	}
}

func TestFutureVersion(t *testing.T) { refusedByBothReaders(t, 9, 2) }

// TestRetiredVersion: one format generation per magic — a version
// older than the decoder's is refused exactly like a newer one.
func TestRetiredVersion(t *testing.T) { refusedByBothReaders(t, 1, 2) }

func TestTruncationAtEveryByte(t *testing.T) {
	data := buildContainer()
	// A cut exactly at a section boundary yields a valid, shorter
	// container (consumers reject missing sections themselves); every
	// other cut must fail at the container layer.
	boundaries := map[int]bool{len(EngineMagic) + 2: true}
	secs, err := DecodeSections(data, EngineMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	off := len(EngineMagic) + 2
	for _, s := range secs {
		var e Enc
		e.Uvarint(uint64(len(s.Payload)))
		off += 1 + len(e.Bytes()) + len(s.Payload) + 4
		boundaries[off] = true
	}
	for n := 0; n < len(data); n++ {
		got, err := DecodeSections(data[:n], EngineMagic, 1)
		if boundaries[n] {
			if err != nil {
				t.Fatalf("cut at boundary %d failed: %v", n, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly (%d sections)", n, len(data), len(got))
		}
	}
}

func TestFlippedCRC(t *testing.T) {
	data := buildContainer()
	data[len(data)-1] ^= 0xFF
	if _, err := DecodeSections(data, EngineMagic, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptPayloadByte(t *testing.T) {
	data := buildContainer()
	// First payload byte lives right after magic+version+id+len varint.
	data[len(EngineMagic)+2+2] ^= 0x55
	if _, err := DecodeSections(data, EngineMagic, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestOverlongSectionLength(t *testing.T) {
	w := NewWriter(EngineMagic, 1)
	buf := w.Bytes()
	buf = append(buf, 1)          // section id
	buf = append(buf, 0xFF, 0x7F) // claims 16383 payload bytes
	buf = append(buf, 1, 2, 3)
	if _, err := DecodeSections(buf, EngineMagic, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecErrorLatching(t *testing.T) {
	d := NewDec([]byte{1})
	_ = d.U64() // fails: only 1 byte
	if d.Err() == nil {
		t.Fatal("no error after short read")
	}
	// Every further read stays failed and returns zero values.
	if got := d.U32(); got != 0 {
		t.Errorf("post-error u32 = %d", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("post-error string = %q", got)
	}
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("done = %v, want ErrCorrupt", err)
	}
}

func TestDecTrailingBytes(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	_ = d.U8()
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("done = %v, want ErrCorrupt for trailing bytes", err)
	}
}

func TestCountGuardsAllocation(t *testing.T) {
	var e Enc
	e.Uvarint(math.MaxUint64 / 2)
	d := NewDec(e.Bytes())
	if n := d.Count(8); n != 0 || d.Err() == nil {
		t.Fatalf("count = %d err = %v; want rejection", n, d.Err())
	}
}

func TestBoolRejectsJunk(t *testing.T) {
	d := NewDec([]byte{2})
	_ = d.Bool()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for bool byte 2", d.Err())
	}
}

func TestWriterWriteTo(t *testing.T) {
	w := NewWriter(CheckpointMagic, CheckpointVersion)
	w.Section(9, []byte("payload"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	secs, err := ReadSections(&buf, CheckpointMagic, CheckpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].ID != 9 || string(secs[0].Payload) != "payload" {
		t.Fatalf("sections = %+v", secs)
	}
}

func TestReadSectionsIOError(t *testing.T) {
	r := io.MultiReader(bytes.NewReader([]byte(EngineMagic)), errReader{})
	if _, err := ReadSections(r, EngineMagic, 1); err == nil {
		t.Fatal("io error swallowed")
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("boom") }

// lenReader claims a length it does not have: Len must only size the
// read buffer, never decide how much is read.
type lenReader struct {
	io.Reader
	claimed int
}

func (l lenReader) Len() int { return l.claimed }

// TestReadSectionsSizedRead covers the readers ReadSections sizes its
// buffer from, the ones it cannot, and the ones that lie.
func TestReadSectionsSizedRead(t *testing.T) {
	data := buildContainer()
	want, err := DecodeSections(data, EngineMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"bytes.Reader":  bytes.NewReader(data),
		"bytes.Buffer":  bytes.NewBuffer(append([]byte(nil), data...)),
		"plain reader":  io.MultiReader(bytes.NewReader(data)),
		"claims less":   lenReader{bytes.NewReader(data), 3},
		"claims more":   lenReader{bytes.NewReader(data), 10 * len(data)},
		"claims nought": lenReader{bytes.NewReader(data), 0},
	} {
		got, err := ReadSections(r, EngineMagic, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sections differ from DecodeSections", name)
		}
	}

	// A truthful in-memory reader costs one buffer, not a growth
	// series: the bound leaves room for the reader, the section list
	// and the decoded payload, not for a buffer that doubles to 1 MiB.
	w := NewWriter(EngineMagic, 1)
	w.Section(1, make([]byte, 1<<20))
	big := w.Bytes()
	perRead := testing.AllocsPerRun(5, func() {
		if _, err := ReadSections(bytes.NewReader(big), EngineMagic, 1); err != nil {
			t.Fatal(err)
		}
	})
	if perRead > 6 {
		t.Errorf("sized read of 1 MiB made %v allocations", perRead)
	}

	// Over the cap: rejected as corrupt from Len alone, before any
	// byte is copied. The backing array is never touched, so it costs
	// address space, not memory.
	over := bytes.NewReader(make([]byte, maxSnapshotBytes+1))
	if _, err := ReadSections(over, EngineMagic, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-limit reader: err = %v, want ErrCorrupt", err)
	}
	if over.Len() != maxSnapshotBytes+1 {
		t.Errorf("over-limit reader was read: %d bytes left", over.Len())
	}

	// A *bytes.Buffer is decoded in place and drained: the sections
	// are its bytes, and nothing is left to read.
	buf := bytes.NewBuffer(append([]byte(nil), data...))
	held := buf.Bytes()
	got, err := ReadSections(buf, EngineMagic, 1)
	if err != nil || buf.Len() != 0 {
		t.Fatalf("buffer: err %v, %d bytes left unread", err, buf.Len())
	}
	if p := got[0].Payload; len(p) == 0 || &p[0] != &held[len(EngineMagic)+2+2] {
		t.Errorf("buffer: the first payload is a copy, not the buffer's bytes")
	}
}
