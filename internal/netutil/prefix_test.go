package netutil

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"163.253.63.0/24", "163.253.63.0/24", false},
		{"163.253.63.63/24", "163.253.63.0/24", false}, // canonicalized
		{"0.0.0.0/0", "0.0.0.0/0", false},
		{"10.0.0.0/8", "10.0.0.0/8", false},
		{"1.2.3.4/32", "1.2.3.4/32", false},
		{"2001:db8::/32", "", true}, // IPv6 rejected
		{"nonsense", "", true},
		{"10.0.0.0/33", "", true},
	}
	for _, tt := range tests {
		got, err := ParsePrefix(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParsePrefix(%q) err=%v wantErr=%v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got.String() != tt.want {
			t.Errorf("ParsePrefix(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestPrefixFromMasksBits(t *testing.T) {
	p := PrefixFrom(0x0a0b0c0d, 16)
	if p.String() != "10.11.0.0/16" {
		t.Errorf("PrefixFrom = %s, want 10.11.0.0/16", p)
	}
	if PrefixFrom(1, 40).Bits() != 32 {
		t.Error("bits should clamp to 32")
	}
	if PrefixFrom(1, -1).Bits() != 0 {
		t.Error("bits should clamp to 0")
	}
}

func TestContainsCovers(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(0x0a010203) {
		t.Error("10.1.0.0/16 should contain 10.1.2.3")
	}
	if p.Contains(0x0a020000) {
		t.Error("10.1.0.0/16 should not contain 10.2.0.0")
	}
	q := MustParsePrefix("10.1.2.0/24")
	if !p.Covers(q) {
		t.Error("10.1.0.0/16 should cover 10.1.2.0/24")
	}
	if q.Covers(p) {
		t.Error("10.1.2.0/24 should not cover 10.1.0.0/16")
	}
	if !p.Covers(p) {
		t.Error("a prefix covers itself")
	}
	if (Prefix{}).Covers(p) || p.Covers(Prefix{}) {
		t.Error("invalid prefixes cover nothing")
	}
}

func TestNumAddrsNthAddr(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.NumAddrs() != 256 {
		t.Errorf("NumAddrs = %d, want 256", p.NumAddrs())
	}
	if AddrString(p.NthAddr(63)) != "192.0.2.63" {
		t.Errorf("NthAddr(63) = %s", AddrString(p.NthAddr(63)))
	}
	if p.NthAddr(256) != p.NthAddr(0) {
		t.Error("NthAddr should wrap modulo prefix size")
	}
	if (Prefix{}).NumAddrs() != 0 {
		t.Error("invalid prefix has no addresses")
	}
}

func TestExcludeCovered(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.1.0.0/16"), // covered by /8
		MustParsePrefix("10.1.2.0/24"), // covered by both
		MustParsePrefix("11.0.0.0/16"),
		MustParsePrefix("11.0.0.0/16"), // duplicate
		MustParsePrefix("12.0.0.0/16"),
		MustParsePrefix("12.1.0.0/16"),
	}
	got := ExcludeCovered(ps)
	want := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("11.0.0.0/16"),
		MustParsePrefix("12.0.0.0/16"),
		MustParsePrefix("12.1.0.0/16"),
	}
	if len(got) != len(want) {
		t.Fatalf("ExcludeCovered = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("ExcludeCovered[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if ExcludeCovered(nil) != nil {
		t.Error("ExcludeCovered(nil) should be nil")
	}
}

func TestExcludeCoveredProperty(t *testing.T) {
	// Against a naive O(n^2) oracle on random prefix sets.
	rng := rand.New(rand.NewSource(42)) // #nosec test randomness
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		ps := make([]Prefix, n)
		for i := range ps {
			ps[i] = PrefixFrom(rng.Uint32(), 8+rng.Intn(17))
		}
		got := ExcludeCovered(ps)
		// Oracle: dedupe, then keep p iff no distinct q covers it.
		seen := map[Prefix]bool{}
		var uniq []Prefix
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				uniq = append(uniq, p)
			}
		}
		var want []Prefix
		for _, p := range uniq {
			covered := false
			for _, q := range uniq {
				if q != p && q.Covers(p) {
					covered = true
					break
				}
			}
			if !covered {
				want = append(want, p)
			}
		}
		SortPrefixes(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d prefixes, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d]=%s want %s", trial, i, got[i], want[i])
			}
		}
	}
}

// comparePrefixesFieldwise is the definition ComparePrefixes had before
// Prefix became one word, kept verbatim as the oracle: network
// address, then length, shorter first.
func comparePrefixesFieldwise(a, b Prefix) int {
	switch {
	case a.Addr() < b.Addr():
		return -1
	case a.Addr() > b.Addr():
		return 1
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}

func TestComparePrefixesTotalOrder(t *testing.T) {
	check := func(p, q Prefix) bool {
		c1, c2 := ComparePrefixes(p, q), ComparePrefixes(q, p)
		if c1 != comparePrefixesFieldwise(p, q) || c2 != comparePrefixesFieldwise(q, p) {
			return false
		}
		if p == q {
			return c1 == 0 && c2 == 0
		}
		return c1 == -c2 && c1 != 0
	}
	f := func(a1, a2 uint32, b1, b2 uint8) bool {
		p := PrefixFrom(a1, int(b1%33))
		q := PrefixFrom(a2, int(b2%33))
		// Random addresses almost never collide, so also compare two
		// lengths of one address, and each side with the zero value.
		return check(p, q) && check(p, PrefixFrom(a1, int(b2%33))) &&
			check(Prefix{}, p) && check(q, Prefix{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	// The zero value sorts before every real prefix, 0.0.0.0/0 included.
	if ComparePrefixes(Prefix{}, Prefix{}) != 0 {
		t.Error("the zero value must compare equal to itself")
	}
	if ComparePrefixes(Prefix{}, PrefixFrom(0, 0)) >= 0 {
		t.Error("the zero value must sort before 0.0.0.0/0")
	}

	// SortPrefixes agrees with a sort under the oracle.
	rng := rand.New(rand.NewSource(7)) // #nosec test randomness
	ps := []Prefix{{}, PrefixFrom(0, 0), PrefixFrom(0, 1), PrefixFrom(0, 32)}
	for i := 0; i < 500; i++ {
		a := rng.Uint32()
		ps = append(ps, PrefixFrom(a, rng.Intn(33)), PrefixFrom(a, rng.Intn(33)))
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	want := slices.Clone(ps)
	slices.SortFunc(want, comparePrefixesFieldwise)
	SortPrefixes(ps)
	if !slices.Equal(ps, want) {
		t.Error("SortPrefixes order differs from the field-wise order")
	}
	if ps[0].IsValid() {
		t.Errorf("sorted[0] = %s, want the zero value", ps[0])
	}
}

func addr4(a uint32) netip.Addr {
	return netip.AddrFrom4([4]byte(binary.BigEndian.AppendUint32(nil, a)))
}

func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// checkAgainstNetip compares every accessor of p with the masked
// netip.Prefix of the same address and length; rng draws the extra
// addresses and prefixes Contains, NthAddr and Covers are probed with.
func checkAgainstNetip(t *testing.T, p Prefix, ref netip.Prefix, rng *rand.Rand) {
	t.Helper()
	if !p.IsValid() || !ref.IsValid() {
		t.Fatalf("%s / %s: IsValid = %v / %v", p, ref, p.IsValid(), ref.IsValid())
	}
	if p.String() != ref.String() {
		t.Errorf("String = %q, netip %q", p.String(), ref.String())
	}
	if p.Addr() != addrU32(ref.Addr()) || p.Bits() != ref.Bits() {
		t.Errorf("%s: Addr/Bits = %#x/%d, netip %#x/%d", ref, p.Addr(), p.Bits(), addrU32(ref.Addr()), ref.Bits())
	}
	if AddrString(p.Addr()) != ref.Addr().String() {
		t.Errorf("AddrString = %q, netip %q", AddrString(p.Addr()), ref.Addr())
	}
	size := uint64(1) << (32 - uint(ref.Bits()))
	if p.NumAddrs() != size {
		t.Errorf("%s: NumAddrs = %d, want %d", ref, p.NumAddrs(), size)
	}
	first := addrU32(ref.Addr())
	last := first + uint32(size-1)
	for _, a := range []uint32{first, last, first - 1, last + 1, 0, ^uint32(0), rng.Uint32(), first + uint32(rng.Uint64()%size)} {
		if got, want := p.Contains(a), ref.Contains(addr4(a)); got != want {
			t.Errorf("%s.Contains(%s) = %v, netip %v", ref, addr4(a), got, want)
		}
	}
	for _, n := range []uint64{0, 1, size - 1, size, size + 1, rng.Uint64()} {
		if got, want := p.NthAddr(n), first+uint32(n%size); got != want {
			t.Errorf("%s.NthAddr(%d) = %#x, want %#x", ref, n, got, want)
		}
	}
	// Covers, against netip's own containment: a sub-prefix, a
	// super-prefix, p itself, and an unrelated one.
	for _, q := range []netip.Prefix{
		ref,
		netip.PrefixFrom(addr4(first+uint32(rng.Uint64()%size)), ref.Bits()+rng.Intn(33-ref.Bits())).Masked(),
		netip.PrefixFrom(ref.Addr(), rng.Intn(ref.Bits()+1)).Masked(),
		netip.PrefixFrom(addr4(rng.Uint32()), rng.Intn(33)).Masked(),
	} {
		want := ref.Bits() <= q.Bits() && ref.Contains(q.Addr())
		if got := p.Covers(PrefixFrom(addrU32(q.Addr()), q.Bits())); got != want {
			t.Errorf("%s.Covers(%s) = %v, netip %v", ref, q, got, want)
		}
	}
	if back, err := ParsePrefix(p.String()); err != nil || back != p {
		t.Errorf("ParsePrefix(%q) = %v, %v; want the same prefix back", p.String(), back, err)
	}
}

// TestPrefixMatchesNetip pins the one-word Prefix to net/netip, which
// it used to wrap: same strings, same accessors, same containment,
// same ParsePrefix accept/reject set and error text.
func TestPrefixMatchesNetip(t *testing.T) {
	rng := rand.New(rand.NewSource(19)) // #nosec test randomness

	table := []struct {
		addr uint32
		bits int
	}{
		{0, 0},           // 0.0.0.0/0
		{^uint32(0), 32}, // 255.255.255.255/32
		{^uint32(0), 0},  // every bit masked away
		{^uint32(0), 1},  // 128.0.0.0/1
		{0x7fffffff, 1},  // 0.0.0.0/1
		{0x0a010203, 8},  // 10.1.2.3/8: host bits set
		{0xc0000201, 31}, // 192.0.2.0/31
		{0xfffffffe, 31}, // the last /31
		{0, 32},          // 0.0.0.0/32
		{0xa3fd3f3f, 24}, // the measurement prefix, from a host address
		{0xc63364ff, 25}, // 198.51.100.128/25
		{0xdeadbeef, 17}, // an odd length
	}
	for _, tc := range table {
		checkAgainstNetip(t, PrefixFrom(tc.addr, tc.bits), netip.PrefixFrom(addr4(tc.addr), tc.bits).Masked(), rng)
	}
	for i := 0; i < 10000; i++ {
		addr, bits := rng.Uint32(), rng.Intn(33)
		checkAgainstNetip(t, PrefixFrom(addr, bits), netip.PrefixFrom(addr4(addr), bits).Masked(), rng)
	}

	// The zero value: netip.Prefix{} prints "invalid/0" and panics in
	// As4; ours is inert everywhere.
	var zero Prefix
	if zero.IsValid() || zero.String() != "invalid" || zero.Bits() != -1 || zero.Bits() != (netip.Prefix{}).Bits() ||
		zero.Addr() != 0 || zero.NumAddrs() != 0 || zero.NthAddr(5) != 0 ||
		zero.Contains(0) || zero.Covers(zero) || zero.Covers(PrefixFrom(0, 0)) || PrefixFrom(0, 0).Covers(zero) {
		t.Errorf("zero Prefix is not inert: %+v %q bits=%d", zero, zero.String(), zero.Bits())
	}
	if zero == PrefixFrom(0, 0) {
		t.Error("the zero value must differ from 0.0.0.0/0")
	}

	// ParsePrefix accepts exactly what netip.ParsePrefix accepts and
	// calls IPv4, and wraps netip's own error otherwise.
	for _, in := range []string{
		"0.0.0.0/0", "255.255.255.255/32", "10.1.2.3/8", "192.0.2.0/31", "128.0.0.0/1",
		"163.253.63.0/24", "1.2.3.4/32",
		"2001:db8::/32", "::/0", "::ffff:10.0.0.0/104", "::ffff:a00:0/104", "::10.0.0.0/120",
		"fe80::1%eth0/64", "10.0.0.0%eth0/8",
		"", "invalid", "nonsense", "10.0.0.0", "10.0.0.0/", "/8", "10.0.0.0/33", "10.0.0.0/-1",
		"10.0.0.0/+8", "10.0.0.0/08", "10.0.0.0/8 ", " 10.0.0.0/8", "10.0.0/8", "10.0.0.0.0/8",
		"010.0.0.0/8", "256.0.0.0/8", "10.0.0.0/8/8", "10.0.0.0/0x8", "１0.0.0.0/8",
	} {
		got, err := ParsePrefix(in)
		ref, refErr := netip.ParsePrefix(in)
		wantOK := refErr == nil && ref.Addr().Is4()
		if (err == nil) != wantOK {
			t.Errorf("ParsePrefix(%q) err = %v; netip err = %v, Is4 = %v", in, err, refErr, refErr == nil && ref.Addr().Is4())
			continue
		}
		switch {
		case wantOK:
			ref = ref.Masked()
			if got != PrefixFrom(addrU32(ref.Addr()), ref.Bits()) || got.String() != ref.String() {
				t.Errorf("ParsePrefix(%q) = %s, netip %s", in, got, ref)
			}
		case got != zero:
			t.Errorf("ParsePrefix(%q) returned %s beside an error", in, got)
		case refErr != nil && (err.Error() != "netutil: "+refErr.Error() || errors.Unwrap(err) == nil):
			t.Errorf("ParsePrefix(%q) err = %q, want netip's %q wrapped", in, err, refErr)
		}
	}
}

// FuzzParsePrefix holds ParsePrefix to net/netip on arbitrary text:
// the same strings parse, to the same canonical value, which prints
// and re-parses to itself.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{
		"163.253.63.0/24", "10.1.2.3/8", "0.0.0.0/0", "255.255.255.255/32", "2001:db8::/32",
		"::ffff:10.0.0.0/104", "fe80::1%eth0/64", "10.0.0.0/33", "010.0.0.0/8", "nonsense", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParsePrefix(s)
		ref, refErr := netip.ParsePrefix(s)
		if wantOK := refErr == nil && ref.Addr().Is4(); (err == nil) != wantOK {
			t.Fatalf("ParsePrefix(%q) err = %v; netip err = %v", s, err, refErr)
		}
		if err != nil {
			if got.IsValid() {
				t.Fatalf("ParsePrefix(%q) returned %s beside an error", s, got)
			}
			return
		}
		ref = ref.Masked()
		if got.String() != ref.String() || got.Addr() != addrU32(ref.Addr()) || got.Bits() != ref.Bits() {
			t.Fatalf("ParsePrefix(%q) = %s, netip %s", s, got, ref)
		}
		if back, err := ParsePrefix(got.String()); err != nil || back != got {
			t.Fatalf("ParsePrefix(%q) = %v, %v; want %s back", got.String(), back, err, got)
		}
	})
}

// TestPrefixLayout pins the point of the representation: one
// pointer-free word, so a later field cannot quietly undo it.
func TestPrefixLayout(t *testing.T) {
	if got := unsafe.Sizeof(Prefix{}); got != 8 {
		t.Errorf("unsafe.Sizeof(Prefix{}) = %d, want 8", got)
	}
}
