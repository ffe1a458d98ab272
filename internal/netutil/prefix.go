// Package netutil provides IPv4 prefix utilities for the reproduction:
// a one-word prefix value, parsing, containment algebra, address
// enumeration, a longest-prefix-match trie, and the covered-prefix
// exclusion the paper applies when building its target list (§3.2: "We
// excluded 437 prefixes entirely covered by other prefixes").
//
// Everything the simulator does is keyed by prefix, so Prefix is kept
// to eight pointer-free bytes; net/netip is used for parsing text only.
package netutil

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
)

// Prefix is an IPv4 CIDR block packed into one word:
//
//	v = uint64(addr & mask(bits))<<8 | uint64(bits+1)
//
// The address is always masked (canonical), so values compare with ==
// and work as map keys; the zero value is the invalid prefix (length
// byte 0, which no real prefix has). The integer order of v is the
// canonical order of ComparePrefixes: address first, then shorter
// prefix first, the invalid prefix before everything.
type Prefix struct {
	v uint64
}

// ParsePrefix parses "a.b.c.d/len" into a canonical IPv4 Prefix.
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("netutil: %w", err)
	}
	if !p.Addr().Is4() {
		return Prefix{}, fmt.Errorf("netutil: %q is not IPv4", s)
	}
	b := p.Addr().As4()
	return PrefixFrom(binary.BigEndian.Uint32(b[:]), p.Bits()), nil
}

// MustParsePrefix is ParsePrefix but panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// PrefixFrom builds a canonical Prefix from a 32-bit address and
// prefix length. Bits outside the mask are cleared.
func PrefixFrom(addr uint32, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{uint64(addr&mask(bits))<<8 | uint64(bits+1)}
}

// mask is the netmask of a length in [0, 32]; a 32-bit shift of a
// uint32 is 0 in Go, so /0 needs no special case.
func mask(bits int) uint32 { return ^uint32(0) << (32 - uint(bits)) }

// IsValid reports whether p is a real prefix (the zero Prefix is not).
func (p Prefix) IsValid() bool { return p.v != 0 }

// Bits returns the prefix length, -1 for the invalid prefix.
func (p Prefix) Bits() int { return int(p.v&0xff) - 1 }

// Addr returns the network address as a 32-bit integer (0 for the
// invalid prefix).
func (p Prefix) Addr() uint32 { return uint32(p.v >> 8) }

// String returns canonical CIDR notation, "invalid" for the zero value.
func (p Prefix) String() string {
	if !p.IsValid() {
		return "invalid"
	}
	var buf [len("255.255.255.255/32")]byte
	b := appendAddr(buf[:0], p.Addr())
	b = append(b, '/')
	return string(strconv.AppendUint(b, uint64(p.Bits()), 10))
}

// Contains reports whether address a (32-bit) is inside p.
func (p Prefix) Contains(a uint32) bool {
	return p.IsValid() && a&mask(p.Bits()) == p.Addr()
}

// Covers reports whether p covers q: every address of q is in p.
// A prefix covers itself.
func (p Prefix) Covers(q Prefix) bool {
	return q.IsValid() && p.Bits() <= q.Bits() && p.Contains(q.Addr())
}

// NumAddrs returns the number of addresses in the prefix.
func (p Prefix) NumAddrs() uint64 {
	if !p.IsValid() {
		return 0
	}
	return uint64(1) << (32 - uint(p.Bits()))
}

// NthAddr returns the n-th address within the prefix (0 is the network
// address). n is taken modulo the prefix size, so callers can index
// with arbitrary offsets.
func (p Prefix) NthAddr(n uint64) uint32 {
	size := p.NumAddrs()
	if size == 0 {
		return 0
	}
	return p.Addr() + uint32(n%size)
}

// AddrString formats a 32-bit address in dotted quad.
func AddrString(a uint32) string {
	var buf [len("255.255.255.255")]byte
	return string(appendAddr(buf[:0], a))
}

func appendAddr(b []byte, a uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// ComparePrefixes orders prefixes by network address, then by length
// (shorter first). Used to produce deterministic output everywhere.
func ComparePrefixes(a, b Prefix) int { return cmp.Compare(a.v, b.v) }

// SortPrefixes sorts prefixes in the canonical order.
func SortPrefixes(ps []Prefix) { slices.SortFunc(ps, ComparePrefixes) }

// ExcludeCovered removes from ps every prefix that is entirely covered
// by a *different* prefix in ps, reproducing the paper's target-list
// construction. The result is in canonical order. Duplicates collapse
// to a single instance.
func ExcludeCovered(ps []Prefix) []Prefix {
	if len(ps) == 0 {
		return nil
	}
	sorted := make([]Prefix, len(ps))
	copy(sorted, ps)
	SortPrefixes(sorted)
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	// After sorting, any cover of p precedes p. Maintain a stack of
	// covering candidates.
	var out []Prefix
	var stack []Prefix
	for _, p := range uniq {
		for len(stack) > 0 && !stack[len(stack)-1].Covers(p) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			out = append(out, p)
		}
		stack = append(stack, p)
	}
	return out
}
