package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/netutil"
)

// TestEncDecRoundTrip drives every Enc method through the matching Dec
// method and requires exact value recovery plus full consumption.
func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.String("hello")
	e.String("")
	e.Blob([]byte{1, 2, 3})
	e.Blob(nil)

	d := NewDec(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := d.Blob(); len(got) != 0 {
		t.Errorf("empty Blob = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done after full read: %v", err)
	}

	// Reset starts the next payload in the same buffer.
	e.Reset()
	e.U16(7)
	if got := e.Bytes(); !bytes.Equal(got, []byte{7, 0}) {
		t.Errorf("payload after Reset = %v, want the new payload alone", got)
	}
}

// TestDecTruncationLatches reads each scalar type off an empty payload
// and checks the decoder latches one ErrCorrupt and keeps returning
// zero values instead of panicking.
func TestDecTruncationLatches(t *testing.T) {
	for name, read := range map[string]func(*Dec){
		"u8":      func(d *Dec) { d.U8() },
		"bool":    func(d *Dec) { d.Bool() },
		"u16":     func(d *Dec) { d.U16() },
		"u32":     func(d *Dec) { d.U32() },
		"u64":     func(d *Dec) { d.U64() },
		"i64":     func(d *Dec) { d.I64() },
		"f64":     func(d *Dec) { d.F64() },
		"uvarint": func(d *Dec) { d.Uvarint() },
		"string":  func(d *Dec) { _ = d.String() },
		"blob":    func(d *Dec) { d.Blob() },
	} {
		d := NewDec(nil)
		read(d)
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s on empty payload: err = %v, want ErrCorrupt", name, d.Err())
		}
		// The error latches: further reads stay at zero, Done reports it.
		if v := d.U32(); v != 0 {
			t.Errorf("%s: read after latched error = %d, want 0", name, v)
		}
		if !errors.Is(d.Done(), ErrCorrupt) {
			t.Errorf("%s: Done = %v, want ErrCorrupt", name, d.Done())
		}
	}
}

// TestDecBoolRejectsJunk pins the strictness that makes Bool fields
// canonical: 2..255 are corrupt, not truthy.
func TestDecBoolRejectsJunk(t *testing.T) {
	d := NewDec([]byte{2})
	if d.Bool() {
		t.Error("Bool(0x02) returned true")
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Bool(0x02) err = %v, want ErrCorrupt", d.Err())
	}
}

// TestWriterReadSections round-trips a container through the io.Writer
// / io.Reader surface (WriteTo + ReadSections), complementing the
// in-memory DecodeSections tests.
// TestPrefixCodec: Enc.Prefix writes address then length, the layout
// of every prefix in RBGP and RCKP; Dec.Prefix reads it back and
// refuses a length above 32 or a truncated prefix as ErrCorrupt.
func TestPrefixCodec(t *testing.T) {
	var e Enc
	ps := []netutil.Prefix{
		netutil.MustParsePrefix("0.0.0.0/0"),
		netutil.MustParsePrefix("10.1.2.0/24"),
		netutil.MustParsePrefix("255.255.255.255/32"),
	}
	for _, p := range ps {
		e.Prefix(p)
	}
	if want := []byte{0, 0, 0, 0, 0, 0, 2, 1, 10, 24}; !bytes.Equal(e.Bytes()[:10], want) {
		t.Errorf("encoded % x, want % x", e.Bytes()[:10], want)
	}
	d := NewDec(e.Bytes())
	for _, want := range ps {
		if got, err := d.Prefix(); err != nil || got != want {
			t.Errorf("Prefix = %s, %v; want %s", got, err, want)
		}
	}
	if err := d.Done(); err != nil {
		t.Error(err)
	}
	for name, payload := range map[string][]byte{
		"length 33": {10, 0, 0, 0, 33},
		"truncated": {10, 0, 0, 0},
	} {
		if _, err := NewDec(payload).Prefix(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
}

func TestWriterReadSections(t *testing.T) {
	w := NewWriter(EngineMagic, EngineVersion)
	w.Section(1, []byte("alpha"))
	w.Section(2, nil)
	var buf bytes.Buffer
	if n, err := w.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = (%d, %v), buffered %d", n, err, buf.Len())
	}
	secs, err := ReadSections(&buf, EngineMagic, EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 2 || secs[0].ID != 1 || string(secs[0].Payload) != "alpha" ||
		secs[1].ID != 2 || len(secs[1].Payload) != 0 {
		t.Fatalf("sections = %+v", secs)
	}
}

// TestWriterBeginEnd pins the in-place section against the layout it
// replaces: for payloads whose uvarint lengths take one to three bytes,
// a payload appended between Begin and End yields exactly
// [id][uvarint length][payload][crc32], and once Grow has sized the
// buffer a whole section allocates nothing.
func TestWriterBeginEnd(t *testing.T) {
	for _, size := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		want := []byte(CheckpointMagic)
		want = binary.BigEndian.AppendUint16(want, CheckpointVersion)
		for _, id := range []byte{3, 9} {
			want = append(want, id)
			want = binary.AppendUvarint(want, uint64(size))
			want = append(want, payload...)
			want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		}

		w := NewWriter(CheckpointMagic, CheckpointVersion)
		w.Grow(2 * len(want)) // room for the measured section's warm-up run too
		e := w.Begin(3)
		for _, b := range payload {
			e.U8(b)
		}
		w.End()
		if got := testing.AllocsPerRun(1, func() { w.Section(9, payload) }); got != 0 {
			t.Errorf("payload %d: a section into a grown buffer made %.0f allocations, want 0", size, got)
		}
		// AllocsPerRun ran the section twice (a warm-up, then the
		// measured run); keep the first.
		got := w.Bytes()[:len(want)]
		if !bytes.Equal(got, want) {
			t.Errorf("payload %d: Begin/End wrote % x..., want % x...", size, got[:min(len(got), 24)], want[:min(len(want), 24)])
		}
	}
}
