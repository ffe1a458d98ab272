// Package snapshot is the versioned binary container the engine and
// the survey checkpoints serialize into. A snapshot is a magic number,
// a big-endian uint16 format version, and a sequence of sections, each
// [id byte][uvarint payload length][payload][crc32(payload) as
// big-endian uint32]. The container is deliberately dumb: it knows
// nothing about BGP — packages encode their own section payloads with
// Enc and decode them with Dec — but it owns the properties every
// consumer needs: deterministic bytes (writers append in a fixed
// order; Enc has no map iteration), integrity (per-section CRC so a
// corrupted checkpoint is detected before any state is half-applied),
// and version refusal (a decoder rejects snapshots of any format
// version but its own instead of misreading them).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/netutil"
)

// Format versions. Any change to a payload layout — field added,
// removed, reordered, or re-encoded — must bump the owning magic's
// version and be documented in FORMAT.md; the golden-format tests
// exist to force that bump.
const (
	// EngineVersion is the bgp.Network snapshot format version. v2
	// added the interned path table section (paths referenced by ID
	// from the route table and churn log); v1 snapshots, with inline
	// paths, are refused with ErrVersion.
	EngineVersion = 2
	// CheckpointVersion is the resurvey checkpoint format version.
	CheckpointVersion = 1
	// JobVersion is the resurveyd job-manifest format version. v2
	// carries the full portable job options (workload, scenario, and
	// optimizer fields) and admits every job kind; v1 manifests, which
	// recorded only survey/sweep jobs, are refused with ErrVersion.
	JobVersion = 2
	// SearchVersion is the optimizer search-state format version.
	SearchVersion = 1
)

// Magic numbers distinguishing the container uses.
const (
	// EngineMagic opens a serialized bgp.Network ("R&E BGP").
	EngineMagic = "RBGP"
	// CheckpointMagic opens a resurvey checkpoint ("R&E checkpoint").
	CheckpointMagic = "RCKP"
	// JobMagic opens a resurveyd job manifest ("R&E job") — the durable
	// record of one submitted job's identity, options, and lifecycle
	// state that lets a restarted server resume interrupted jobs.
	JobMagic = "RJOB"
	// SearchMagic opens an optimizer search-state checkpoint ("R&E
	// optimize"): the best-so-far candidate, generation counter, and
	// RNG cursors a resumed search continues from.
	SearchMagic = "ROPT"
)

// maxSnapshotBytes bounds how much a reader will buffer. Real
// snapshots of even the full-scale ecosystem are a few tens of
// megabytes; the cap exists so a fuzzed length prefix cannot make the
// decoder allocate unbounded memory.
const maxSnapshotBytes = 1 << 30

// ErrCorrupt is wrapped by every decode failure caused by the input
// bytes (bad magic, bad CRC, truncation, overlong section). Callers
// distinguish it from I/O errors with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion is wrapped when the input's format version is not the one
// the decoder reads: a retired older generation or a future one.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Section is one decoded [id, payload] pair.
type Section struct {
	ID      byte
	Payload []byte
}

// Writer assembles a container in one buffer. A section's payload is
// appended straight into that buffer through the Enc that Begin
// returns; End then writes the payload's length in front of it and its
// CRC behind it. Grow sizes the buffer up front, so an encoder that
// knows its output size allocates the container once and copies no
// payload.
type Writer struct {
	e    Enc
	open int // offset of the open section's payload; 0 when none is open
}

// lenRoom is the room Begin leaves for a section's uvarint length: the
// widest uvarint, so End never has to move a payload right.
const lenRoom = binary.MaxVarintLen64

// NewWriter starts a container with the given 4-byte magic and format
// version.
func NewWriter(magic string, version uint16) *Writer {
	w := &Writer{}
	w.e.buf = append(w.e.buf, magic...)
	w.e.buf = binary.BigEndian.AppendUint16(w.e.buf, version)
	return w
}

// Grow makes room for at least n more bytes, so that writing that many
// reallocates nothing.
func (w *Writer) Grow(n int) { w.e.buf = slices.Grow(w.e.buf, n) }

// Begin opens section id and returns the encoder its payload is
// appended through, valid until End. Sections do not nest.
func (w *Writer) Begin(id byte) *Enc {
	if w.open != 0 {
		panic("snapshot: Begin inside an open section")
	}
	w.e.buf = append(w.e.buf, id)
	w.e.buf = append(w.e.buf, make([]byte, lenRoom)...)
	w.open = len(w.e.buf)
	return &w.e
}

// End closes the open section: the payload moves left over the length
// room it does not need, and the CRC follows it.
func (w *Writer) End() {
	if w.open == 0 {
		panic("snapshot: End without Begin")
	}
	size := len(w.e.buf) - w.open
	at := w.open - lenRoom
	n := binary.PutUvarint(w.e.buf[at:w.open], uint64(size))
	copy(w.e.buf[at+n:], w.e.buf[w.open:])
	w.e.buf = w.e.buf[:at+n+size]
	w.e.buf = binary.BigEndian.AppendUint32(w.e.buf, crc32.ChecksumIEEE(w.e.buf[at+n:]))
	w.open = 0
}

// Section appends one section whose payload is already encoded. The
// bytes are copied into the container; the caller may reuse the slice.
func (w *Writer) Section(id byte, payload []byte) {
	w.Begin(id).Raw(payload)
	w.End()
}

// WriteTo writes the assembled container.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	n, err := out.Write(w.Bytes())
	return int64(n), err
}

// Bytes returns the assembled container.
func (w *Writer) Bytes() []byte {
	if w.open != 0 {
		panic("snapshot: Bytes with a section open")
	}
	return w.e.buf
}

// ReadSections reads a whole container from r, validates magic,
// version, lengths, and per-section CRCs, and returns the sections in
// file order. Each magic has exactly one live format generation: the
// input's version must equal the one the caller names, and anything
// older or newer wraps ErrVersion. It never panics on malformed input
// and never allocates more than the input's actual size (plus the cap
// above) regardless of what the length prefixes claim.
//
// A *bytes.Buffer is decoded in place: ReadSections drains it, and the
// sections' payloads alias its bytes until its next write, so a caller
// that keeps a payload past that copies it.
func ReadSections(r io.Reader, magic string, version uint16) ([]Section, error) {
	if b, ok := r.(*bytes.Buffer); ok {
		if b.Len() > maxSnapshotBytes {
			return nil, errTooLarge()
		}
		return DecodeSections(b.Next(b.Len()), magic, version)
	}
	// Any other in-memory reader (*bytes.Reader: every warm restore
	// from a held snapshot) says how much it holds, so the copy is one
	// buffer of that size rather than a doubling series. Len only
	// sizes the buffer: the input is still read to EOF and still
	// capped, whatever the reader claimed.
	size := bytes.MinRead
	if l, ok := r.(interface{ Len() int }); ok {
		if l.Len() > maxSnapshotBytes {
			return nil, errTooLarge()
		}
		size += l.Len()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(io.LimitReader(r, maxSnapshotBytes+1)); err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if buf.Len() > maxSnapshotBytes {
		return nil, errTooLarge()
	}
	return DecodeSections(buf.Bytes(), magic, version)
}

func errTooLarge() error {
	return fmt.Errorf("%w: input exceeds %d bytes", ErrCorrupt, maxSnapshotBytes)
}

// DecodeSections is ReadSections over in-memory bytes.
func DecodeSections(data []byte, magic string, version uint16) ([]Section, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	data = data[len(magic):]
	if got := binary.BigEndian.Uint16(data); got != version {
		return nil, fmt.Errorf("%w: got v%d, decoder reads v%d only", ErrVersion, got, version)
	}
	data = data[2:]

	var sections []Section
	for len(data) > 0 {
		id := data[0]
		data = data[1:]
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: section 0x%02x: bad length varint", ErrCorrupt, id)
		}
		data = data[sz:]
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section 0x%02x: length %d exceeds remaining %d bytes", ErrCorrupt, id, n, len(data))
		}
		payload := data[:n]
		data = data[n:]
		if len(data) < 4 {
			return nil, fmt.Errorf("%w: section 0x%02x: truncated checksum", ErrCorrupt, id)
		}
		want := binary.BigEndian.Uint32(data)
		data = data[4:]
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("%w: section 0x%02x: checksum mismatch (got %08x want %08x)", ErrCorrupt, id, got, want)
		}
		sections = append(sections, Section{ID: id, Payload: payload})
	}
	return sections, nil
}

// Enc builds a section payload. All integers are encoded little-endian
// fixed-width unless the method says uvarint; there is no map
// iteration anywhere, so identical call sequences yield identical
// bytes.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its buffer for the next payload;
// bytes handed out by Bytes are overwritten.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Raw appends b as it is, with no length prefix: bytes another encoder
// already produced.
func (e *Enc) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bool appends 1 or 0.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a fixed-width little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a fixed-width little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Uvarint appends a varint-encoded count or index.
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// String appends a uvarint length followed by the bytes.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a uvarint length followed by the bytes.
func (e *Enc) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Prefix appends a prefix as its address (u32) and length (u8).
func (e *Enc) Prefix(p netutil.Prefix) {
	e.U32(p.Addr())
	e.U8(uint8(p.Bits()))
}

// Dec decodes a section payload written by Enc. It latches the first
// error: after a failed read every further read returns the zero value
// and Err() reports the failure, so decoders can be written as
// straight-line code with a single error check at the end. A reader
// that runs past the payload is an ErrCorrupt, never a panic.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns how many bytes remain unread.
func (d *Dec) Rest() int { return len(d.buf) - d.off }

// Done returns ErrCorrupt if the payload was not fully consumed, or
// the latched error.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes in payload", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *Dec) take(n int, what string) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte and rejects values other than 0 and 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("%w: bool byte 0x%02x at offset %d", ErrCorrupt, v, d.off-1)
	}
	return v == 1
}

// U16 reads a fixed-width little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a fixed-width little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed-width little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint reads a varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(d.buf[d.off:])
	if sz <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += sz
	return v
}

// Count reads a uvarint element count for elements of at least
// minElemSize bytes each and rejects counts that cannot fit in the
// remaining payload, so a fuzzed count cannot drive a huge
// pre-allocation.
func (d *Dec) Count(minElemSize int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if v > uint64(d.Rest()/minElemSize) {
		d.err = fmt.Errorf("%w: count %d exceeds remaining payload (%d bytes)", ErrCorrupt, v, d.Rest())
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Count(1)
	return string(d.take(n, "string"))
}

// Blob reads a length-prefixed byte slice (aliasing the payload).
func (d *Dec) Blob() []byte {
	n := d.Count(1)
	return d.take(n, "blob")
}

// Prefix reads a prefix written by Enc.Prefix. A length above 32 is an
// ErrCorrupt, returned rather than latched.
func (d *Dec) Prefix() (netutil.Prefix, error) {
	addr := d.U32()
	bits := int(d.U8())
	if err := d.Err(); err != nil {
		return netutil.Prefix{}, err
	}
	if bits > 32 {
		return netutil.Prefix{}, fmt.Errorf("%w: prefix length %d", ErrCorrupt, bits)
	}
	return netutil.PrefixFrom(addr, bits), nil
}
