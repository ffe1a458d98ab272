package rpki

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
)

func pfx(s string) netutil.Prefix { return netutil.MustParsePrefix(s) }

func TestValidateBasics(t *testing.T) {
	tbl := NewTable()
	tbl.Add(ROA{Prefix: pfx("163.253.0.0/16"), MaxLength: 24, Origin: 11537})
	tests := []struct {
		p      string
		origin asn.AS
		want   Validity
	}{
		{"163.253.63.0/24", 11537, Valid},
		{"163.253.0.0/16", 11537, Valid},
		{"163.253.63.0/24", 396955, Invalid}, // wrong origin
		{"163.253.63.0/25", 11537, Invalid},  // too specific
		{"8.8.8.0/24", 15169, NotFound},      // uncovered
	}
	for _, tt := range tests {
		if got := tbl.Validate(pfx(tt.p), tt.origin); got != tt.want {
			t.Errorf("Validate(%s, %v) = %v, want %v", tt.p, tt.origin, got, tt.want)
		}
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestValidateMultipleROAs(t *testing.T) {
	tbl := NewTable()
	// Two origins authorized for the same space (multi-homing / an
	// anycast arrangement like the measurement prefix's two origins).
	tbl.Add(ROA{Prefix: pfx("163.253.63.0/24"), MaxLength: 24, Origin: 11537})
	tbl.Add(ROA{Prefix: pfx("163.253.63.0/24"), MaxLength: 24, Origin: 1125})
	tbl.Add(ROA{Prefix: pfx("163.253.0.0/16"), MaxLength: 16, Origin: 396955})
	for _, origin := range []asn.AS{11537, 1125} {
		if got := tbl.Validate(pfx("163.253.63.0/24"), origin); got != Valid {
			t.Errorf("origin %v = %v, want valid", origin, got)
		}
	}
	// The /16 ROA covers the /24 but only authorizes /16-length
	// announcements by 396955.
	if got := tbl.Validate(pfx("163.253.63.0/24"), 396955); got != Invalid {
		t.Errorf("396955 /24 = %v, want invalid (maxlen 16)", got)
	}
	if got := tbl.Validate(pfx("163.253.0.0/16"), 396955); got != Valid {
		t.Errorf("396955 /16 = %v, want valid", got)
	}
}

func TestMaxLengthNormalization(t *testing.T) {
	tbl := NewTable()
	tbl.Add(ROA{Prefix: pfx("10.0.0.0/24"), MaxLength: 8, Origin: 1}) // nonsense maxlen
	if got := tbl.Validate(pfx("10.0.0.0/24"), 1); got != Valid {
		t.Errorf("normalized maxlen should validate the ROA's own length: %v", got)
	}
	tbl.Add(ROA{Prefix: pfx("10.1.0.0/16"), MaxLength: 99, Origin: 2})
	if got := tbl.Validate(pfx("10.1.2.3/32"), 2); got != Valid {
		t.Errorf("maxlen clamps to 32: %v", got)
	}
}

// TestValidateRFC6811Table walks the RFC 6811 decision table over the
// MaxLength edge cases, including the /24 "maxlen 0" shorthand whose
// stored form used to validate its own prefix Invalid.
func TestValidateRFC6811Table(t *testing.T) {
	tbl := NewTable()
	tbl.Add(ROA{Prefix: pfx("203.0.113.0/24"), MaxLength: 0, Origin: 64500}) // shorthand: authorizes exactly /24
	tbl.Add(ROA{Prefix: pfx("198.51.100.0/24"), MaxLength: 25, Origin: 64501})
	tbl.Add(ROA{Prefix: pfx("192.0.0.0/8"), MaxLength: 16, Origin: 64502})
	tbl.Add(ROA{Prefix: pfx("10.0.0.0/30"), MaxLength: 40, Origin: 64503}) // clamps to /32

	tests := []struct {
		name   string
		p      string
		origin asn.AS
		want   Validity
	}{
		{"maxlen-0 authorizes own length", "203.0.113.0/24", 64500, Valid},
		{"maxlen-0 still caps more-specifics", "203.0.113.0/25", 64500, Invalid},
		{"maxlen-0 wrong origin", "203.0.113.0/24", 64999, Invalid},
		{"within explicit maxlen", "198.51.100.128/25", 64501, Valid},
		{"beyond explicit maxlen", "198.51.100.128/26", 64501, Invalid},
		{"exact length under covering ROA", "192.0.0.0/8", 64502, Valid},
		{"mid-range length", "192.168.0.0/16", 64502, Valid},
		{"one past maxlen", "192.168.0.0/17", 64502, Invalid},
		{"covered, wrong origin", "192.168.0.0/16", 64500, Invalid},
		{"maxlen clamps to 32", "10.0.0.1/32", 64503, Valid},
		{"uncovered space", "172.16.0.0/12", 64500, NotFound},
		{"less specific than every ROA", "203.0.0.0/16", 64500, NotFound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tbl.Validate(pfx(tt.p), tt.origin); got != tt.want {
				t.Errorf("Validate(%s, %v) = %v, want %v", tt.p, tt.origin, got, tt.want)
			}
		})
	}
}

// FuzzValidate feeds arbitrary (ROA, announcement) pairs through Add
// and Validate and checks the RFC 6811 invariants that hold for ANY
// input: the ROA's own (prefix, origin) always validates Valid once
// added; a wrong origin never validates Valid under a single-ROA
// table; validity is deterministic; and lengths beyond the effective
// max are Invalid while covered.
func FuzzValidate(f *testing.F) {
	f.Add(uint32(0xCB00_3F00), 24, 24, uint32(11537), 24, uint32(11537))
	f.Add(uint32(0xCB00_3F00), 24, 0, uint32(11537), 25, uint32(11537))  // maxlen-0 shorthand + more-specific
	f.Add(uint32(0xC000_0000), 8, 16, uint32(64502), 17, uint32(64502))  // one past maxlen
	f.Add(uint32(0x0A00_0000), 30, 40, uint32(64503), 32, uint32(64503)) // clamp to 32
	f.Add(uint32(0xC633_6400), 24, 25, uint32(64501), 26, uint32(64999)) // covered, wrong origin, too long
	f.Fuzz(func(t *testing.T, addr uint32, bits, maxLen int, origin uint32, qbits int, qorigin uint32) {
		if bits < 0 || bits > 32 || qbits < 0 || qbits > 32 {
			t.Skip()
		}
		roa := ROA{Prefix: netutil.PrefixFrom(addr, bits), MaxLength: maxLen, Origin: asn.AS(origin)}
		tbl := NewTable()
		tbl.Add(roa)
		if tbl.Len() != 1 {
			t.Fatalf("Add dropped a valid ROA: %v", roa)
		}

		// Invariant 1: the ROA's own announcement is Valid regardless of
		// the MaxLength stored.
		if got := tbl.Validate(roa.Prefix, roa.Origin); got != Valid {
			t.Fatalf("own announcement of %v = %v, want valid", roa, got)
		}

		// Invariant 2: determinism.
		q := netutil.PrefixFrom(addr, qbits)
		v1 := tbl.Validate(q, asn.AS(qorigin))
		v2 := tbl.Validate(q, asn.AS(qorigin))
		if v1 != v2 {
			t.Fatalf("Validate(%v, %v) unstable: %v then %v", q, qorigin, v1, v2)
		}

		// Invariant 3: under a single-ROA table a covered announcement
		// from a different origin is never Valid.
		if asn.AS(qorigin) != roa.Origin && v1 == Valid {
			t.Fatalf("foreign origin %v validated Valid under %v", qorigin, roa)
		}

		// Invariant 4: a covered announcement longer than the effective
		// max length is never Valid.
		if v1 == Valid && qbits > effectiveMaxLength(roa) {
			t.Fatalf("length %d beyond effective max %d validated Valid under %v",
				qbits, effectiveMaxLength(roa), roa)
		}
	})
}

func TestValidityStrings(t *testing.T) {
	for _, v := range []Validity{NotFound, Valid, Invalid} {
		if v.String() == "" {
			t.Errorf("validity %d empty", v)
		}
	}
	roa := ROA{Prefix: pfx("10.0.0.0/8"), MaxLength: 24, Origin: 64500}
	if roa.String() == "" {
		t.Error("ROA string empty")
	}
}

func TestDropInvalidInEngine(t *testing.T) {
	// victim(1) originates a ROA-covered prefix; hijacker(3) announces
	// the same prefix. An ROV-enforcing transit drops the hijack; a
	// non-enforcing one accepts whichever BGP prefers.
	tbl := NewTable()
	victimPrefix := pfx("192.0.2.0/24")
	tbl.Add(ROA{Prefix: victimPrefix, MaxLength: 24, Origin: 64501})

	build := func(enforce bool) *bgp.Network {
		net := bgp.NewNetwork()
		net.AddSpeaker(1, 64501, "victim")
		net.AddSpeaker(2, 64502, "transit")
		net.AddSpeaker(3, 64503, "hijacker")
		custAt := bgp.PeerConfig{ClassifyAs: bgp.ClassCustomer, ImportLocalPref: bgp.LocalPrefCustomer, ExportAllow: bgp.GaoRexfordExport(bgp.ClassCustomer)}
		provAt := bgp.PeerConfig{ClassifyAs: bgp.ClassProvider, ImportLocalPref: bgp.LocalPrefProvider, ExportAllow: bgp.GaoRexfordExport(bgp.ClassProvider)}
		cfg1, cfg3 := custAt, custAt
		if enforce {
			cfg1.ImportDeny = tbl.DropInvalid()
			cfg3.ImportDeny = tbl.DropInvalid()
		}
		net.Connect(2, 1, cfg1, provAt)
		net.Connect(2, 3, cfg3, provAt)
		// The hijacker "wins" tie-breaks without ROV (lower router...
		// actually victim has lower ID; force the hijack preferable by
		// announcing from both and checking adj-RIB-in instead).
		net.Originate(1, victimPrefix)
		net.Originate(3, victimPrefix)
		net.RunToQuiescence()
		return net
	}

	withROV := build(true)
	if r := withROV.Speaker(2).AdjIn(victimPrefix, 3); r != nil {
		t.Errorf("ROV transit accepted the hijack: %v", r)
	}
	if r := withROV.Speaker(2).AdjIn(victimPrefix, 1); r == nil {
		t.Error("ROV transit dropped the valid route")
	}
	without := build(false)
	if r := without.Speaker(2).AdjIn(victimPrefix, 3); r == nil {
		t.Error("non-ROV transit should hold the hijack candidate")
	}
}
