package seeds

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/netutil"
	"repro/internal/simnet"
	"repro/internal/topo"
)

func buildAll(t *testing.T) (*topo.Ecosystem, *simnet.World, *Catalog, []netutil.Prefix) {
	t.Helper()
	eco := topo.Build(topo.SmallConfig())
	w := simnet.BuildWorld(eco, simnet.DefaultWorldConfig())
	cat := BuildCatalog(eco, w, DefaultCatalogConfig())
	prefixes := make([]netutil.Prefix, 0, len(eco.Prefixes))
	for _, pi := range eco.Prefixes {
		prefixes = append(prefixes, pi.Prefix)
	}
	return eco, w, cat, prefixes
}

func TestCatalogCoverage(t *testing.T) {
	_, _, cat, prefixes := buildAll(t)
	isi := len(cat.ISI)
	frac := float64(isi) / float64(len(prefixes))
	if frac < 0.55 || frac > 0.75 {
		t.Errorf("ISI coverage %.2f, want ~0.65", frac)
	}
	// Scores must be sorted descending, equal scores by ascending
	// address.
	for p, entries := range cat.ISI {
		for i := 1; i < len(entries); i++ {
			a, b := entries[i-1], entries[i]
			if b.Score > a.Score || b.Score == a.Score && b.Addr <= a.Addr {
				t.Fatalf("prefix %s ISI entries unsorted: %+v before %+v", p, a, b)
			}
		}
		for _, e := range entries {
			if !p.Contains(e.Addr) {
				t.Fatalf("ISI entry %d outside prefix %s", e.Addr, p)
			}
		}
	}
	for p, svcs := range cat.Censys {
		for i, svc := range svcs {
			if i > 0 && svcs[i-1].Addr >= svc.Addr {
				t.Fatalf("prefix %s Censys entries not in ascending address order", p)
			}
			if !p.Contains(svc.Addr) {
				t.Fatalf("Censys entry outside prefix %s", p)
			}
			if svc.Proto == simnet.ICMP {
				t.Fatalf("Censys should hold TCP/UDP services only")
			}
		}
	}
}

func TestSelectFindsResponsiveTargets(t *testing.T) {
	_, w, cat, prefixes := buildAll(t)
	sel := Select(cat, prefixes, func(addr uint32, proto simnet.Proto) *simnet.Host {
		return w.Responder(addr, proto, 0)
	}, 3)

	if sel.Stats.Responsive == 0 {
		t.Fatal("no responsive prefixes found")
	}
	if sel.Stats.WithISISeed > sel.Stats.WithAnySeed {
		t.Error("WithAnySeed must dominate WithISISeed")
	}
	if sel.Stats.Responsive > sel.Stats.WithAnySeed {
		t.Error("cannot be responsive without a seed")
	}
	if len(sel.Prefixes) != sel.Stats.Responsive {
		t.Errorf("%d prefixes selected, %d responsive", len(sel.Prefixes), sel.Stats.Responsive)
	}
	for i, pt := range sel.Prefixes {
		if i > 0 && netutil.ComparePrefixes(sel.Prefixes[i-1].Prefix, pt.Prefix) >= 0 {
			t.Fatalf("prefixes %s, %s out of canonical order", sel.Prefixes[i-1].Prefix, pt.Prefix)
		}
		p, targets := pt.Prefix, pt.Targets
		if got := sel.Targets(p); len(got) != len(targets) || &got[0] != &targets[0] {
			t.Fatalf("Targets(%s) does not find the selected targets", p)
		}
		if len(targets) == 0 || len(targets) > 3 {
			t.Fatalf("prefix %s has %d targets", p, len(targets))
		}
		seen := map[uint32]bool{}
		for _, tgt := range targets {
			if seen[tgt.Addr] {
				t.Fatalf("duplicate target in %s", p)
			}
			seen[tgt.Addr] = true
			if h := w.Responder(tgt.Addr, tgt.Proto, 0); h == nil || tgt.Host != h {
				t.Fatalf("target %d in %s keeps host %p, its responder is %p", tgt.Addr, p, tgt.Host, h)
			}
		}
	}
	// Origin accounting adds up.
	if sel.Stats.ISIOnly+sel.Stats.CensysOnly+sel.Stats.MixedOrigin != sel.Stats.Responsive {
		t.Error("seed-origin counts do not sum to responsive prefixes")
	}
	// The ICMP-dominant world must show ISI-dominant seeding (§3.2:
	// 77.8% ICMP seeds).
	if sel.Stats.ISIOnly < sel.Stats.CensysOnly {
		t.Errorf("ISI-only (%d) should dominate Censys-only (%d)", sel.Stats.ISIOnly, sel.Stats.CensysOnly)
	}
}

func TestSelectBudget(t *testing.T) {
	// Selection must never probe more than 10 candidates per dataset
	// per prefix.
	_, w, cat, prefixes := buildAll(t)
	probed := make(map[uint32]int)
	var currentPrefix netutil.Prefix
	perPrefix := 0
	sel := Select(cat, prefixes, func(addr uint32, proto simnet.Proto) *simnet.Host {
		p := netutil.PrefixFrom(addr, 16) // rough grouping is fine here
		if p != currentPrefix {
			currentPrefix, perPrefix = p, 0
		}
		perPrefix++
		probed[addr]++
		return w.Responder(addr, proto, 0)
	}, 3)
	if sel.Stats.CandidatesProbed == 0 {
		t.Fatal("no candidates probed")
	}
	if sel.Stats.CandidatesProbed > 20*len(prefixes) {
		t.Errorf("probed %d candidates for %d prefixes", sel.Stats.CandidatesProbed, len(prefixes))
	}
}

func TestSelectEmptyCatalog(t *testing.T) {
	cat := &Catalog{ISI: map[netutil.Prefix][]ISIEntry{}, Censys: map[netutil.Prefix][]CensysService{}}
	p := netutil.MustParsePrefix("10.0.0.0/24")
	sel := Select(cat, []netutil.Prefix{p}, func(uint32, simnet.Proto) *simnet.Host { return &simnet.Host{} }, 3)
	if sel.Stats.Responsive != 0 || len(sel.Prefixes) != 0 || sel.Targets(p) != nil {
		t.Error("empty catalog should select nothing")
	}
	if sel.Stats.Prefixes != 1 {
		t.Error("prefix count wrong")
	}
}

// TestSmallBuildDigest pins everything the world and seed builders
// produce at -small: every prefix's hosts (address, prefix, protocol,
// egress, dormancy, in list order), the catalog's ISI and Censys lists
// (scores bit for bit), and the selection's targets and statistics, fed
// the prefix list NewSurvey feeds it. A builder rewritten for speed must
// reproduce them exactly.
func TestSmallBuildDigest(t *testing.T) {
	eco, w, cat, _ := buildAll(t)
	list := make([]netutil.Prefix, 0, len(eco.Prefixes))
	for _, pi := range eco.Prefixes {
		if pi.Prefix != eco.MeasPrefix {
			list = append(list, pi.Prefix)
		}
	}
	sel := Select(cat, netutil.ExcludeCovered(list), func(addr uint32, proto simnet.Proto) *simnet.Host {
		return w.Responder(addr, proto, 0)
	}, 3)

	h := sha256.New()
	for _, pi := range eco.Prefixes {
		p := pi.Prefix
		fmt.Fprintf(h, "prefix %s\n", p)
		for _, host := range w.Hosts(p) {
			fmt.Fprintf(h, "host %+v\n", *host)
		}
		if isi, ok := cat.ISI[p]; ok {
			fmt.Fprintf(h, "isi %d\n", len(isi))
			for _, e := range isi {
				fmt.Fprintf(h, "%d %x\n", e.Addr, math.Float64bits(e.Score))
			}
		}
		if censys, ok := cat.Censys[p]; ok {
			fmt.Fprintf(h, "censys %+v\n", censys)
		}
	}
	fmt.Fprintf(h, "hosts %d isi %d censys %d\n", w.HostCount(), len(cat.ISI), len(cat.Censys))
	// Each target prints as the three fields it had before it kept its
	// host, in the format %+v gave the slice, so the digest is unmoved.
	for _, pt := range sel.Prefixes {
		fmt.Fprintf(h, "sel %s [", pt.Prefix)
		for i, tgt := range pt.Targets {
			if i > 0 {
				fmt.Fprint(h, " ")
			}
			fmt.Fprintf(h, "{Addr:%d Proto:%v Port:%d}", tgt.Addr, tgt.Proto, tgt.Port)
		}
		fmt.Fprint(h, "]\n")
	}
	fmt.Fprintf(h, "stats %+v\n", sel.Stats)

	const want = "35bac643ab20cb83146e8c5363d86197dabd5fe4f9b960abaa56c8e0eecf3e44"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("-small world, catalog and selection digest %s, want %s", got, want)
	}
}
