// Package seeds reproduces the paper's probe-seed pipeline (§3.2):
// an ISI-history-like dataset ranking addresses by how likely they are
// to still respond, a Censys-like dataset of TCP/UDP service tuples,
// and the selection pass that probes up to ten candidates from each
// dataset per prefix to find up to three currently responsive targets.
package seeds

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/netutil"
	"repro/internal/simnet"
	"repro/internal/slab"
	"repro/internal/topo"
)

// ISIEntry is one address in the response-history dataset with its
// responsiveness score (higher = more likely to respond now).
type ISIEntry struct {
	Addr  uint32
	Score float64
}

// CensysService is one scanned service tuple.
type CensysService struct {
	Addr  uint32
	Proto simnet.Proto
	Port  uint16
}

// Catalog holds both datasets keyed by prefix.
type Catalog struct {
	ISI    map[netutil.Prefix][]ISIEntry
	Censys map[netutil.Prefix][]CensysService
}

// CatalogConfig tunes dataset coverage. Coverage correlates with
// current liveness: a prefix whose systems answered past censuses is
// both in the history dataset and likely still responsive, which is
// what makes the paper's responsive fraction (68.0%) nearly as large
// as its seeded fraction (73.3%).
type CatalogConfig struct {
	Seed int64
	// ISICoverageLive / ISICoverageStale are the probabilities that a
	// prefix appears in the history dataset given that it does / does
	// not currently host live ICMP responders. Their blend reproduces
	// §3.2's 65.2% marginal coverage.
	ISICoverageLive  float64
	ISICoverageStale float64
	// CensysCoverageLive / CensysCoverageStale are the analogous
	// probabilities for prefixes with live TCP/UDP services.
	CensysCoverageLive  float64
	CensysCoverageStale float64
	// StaleMax bounds the number of no-longer-responsive history
	// entries per prefix.
	StaleMax int
}

// DefaultCatalogConfig matches the paper's coverage.
func DefaultCatalogConfig() CatalogConfig {
	return CatalogConfig{
		Seed:                11,
		ISICoverageLive:     0.88,
		ISICoverageStale:    0.33,
		CensysCoverageLive:  0.85,
		CensysCoverageStale: 0.30,
		StaleMax:            7,
	}
}

// BuildCatalog derives the historical datasets from the world's truth:
// live hosts appear with high scores; stale addresses (responsive in
// some past census, quiet now) pad the lists.
func BuildCatalog(eco *topo.Ecosystem, w *simnet.World, cfg CatalogConfig) *Catalog {
	rng := rand.New(rand.NewSource(cfg.Seed)) // #nosec deterministic simulation
	// Size the datasets for their expected coverage: a prefix is in
	// each with its live or its stale probability.
	var nICMP, nSvc float64
	for _, pi := range eco.Prefixes {
		icmp, svc := liveProtos(w.Hosts(pi.Prefix))
		if icmp {
			nICMP++
		}
		if svc {
			nSvc++
		}
	}
	nPfx := float64(len(eco.Prefixes))
	cat := &Catalog{
		ISI:    make(map[netutil.Prefix][]ISIEntry, int(nICMP*cfg.ISICoverageLive+(nPfx-nICMP)*cfg.ISICoverageStale)),
		Censys: make(map[netutil.Prefix][]CensysService, int(nSvc*cfg.CensysCoverageLive+(nPfx-nSvc)*cfg.CensysCoverageStale)),
	}
	// Each list is assembled in a reused buffer, sorted there, and
	// copied into a slab run of exactly its length.
	var isiSlab slab.Slab[ISIEntry]
	var svcSlab slab.Slab[CensysService]
	var entries []ISIEntry
	var svcs []CensysService
	for _, pi := range eco.Prefixes {
		hosts := w.Hosts(pi.Prefix)
		liveICMP, liveSvc := liveProtos(hosts)
		pISI, pCensys := cfg.ISICoverageStale, cfg.CensysCoverageStale
		if liveICMP {
			pISI = cfg.ISICoverageLive
		}
		if liveSvc {
			pCensys = cfg.CensysCoverageLive
		}
		inISI := rng.Float64() < pISI
		inCensys := rng.Float64() < pCensys

		if inISI {
			entries = entries[:0]
			for _, h := range hosts {
				if h.Proto == simnet.ICMP {
					entries = append(entries, ISIEntry{Addr: h.Addr, Score: 0.6 + 0.39*rng.Float64()})
				}
			}
			for i, n := 0, 1+rng.Intn(cfg.StaleMax); i < n; i++ {
				addr := pi.Prefix.NthAddr(uint64(128 + i*3 + rng.Intn(3)))
				entries = append(entries, ISIEntry{Addr: addr, Score: 0.05 + 0.4*rng.Float64()})
			}
			slices.SortFunc(entries, func(a, b ISIEntry) int {
				if c := cmp.Compare(b.Score, a.Score); c != 0 {
					return c
				}
				return cmp.Compare(a.Addr, b.Addr)
			})
			cat.ISI[pi.Prefix] = isiSlab.Copy(entries)
		}
		if inCensys {
			svcs = svcs[:0]
			for _, h := range hosts {
				if h.Proto == simnet.TCP {
					svcs = append(svcs, CensysService{Addr: h.Addr, Proto: simnet.TCP, Port: 443})
				}
				if h.Proto == simnet.UDP {
					svcs = append(svcs, CensysService{Addr: h.Addr, Proto: simnet.UDP, Port: 53})
				}
			}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				addr := pi.Prefix.NthAddr(uint64(200 + i*5))
				svcs = append(svcs, CensysService{Addr: addr, Proto: simnet.TCP, Port: 80})
			}
			if len(svcs) > 0 {
				slices.SortFunc(svcs, func(a, b CensysService) int { return cmp.Compare(a.Addr, b.Addr) })
				cat.Censys[pi.Prefix] = svcSlab.Copy(svcs)
			}
		}
	}
	return cat
}

// liveProtos reports whether hosts hold a live ICMP responder and a
// live TCP or UDP service.
func liveProtos(hosts []*simnet.Host) (icmp, svc bool) {
	for _, h := range hosts {
		if h.Proto == simnet.ICMP {
			icmp = true
		} else {
			svc = true
		}
	}
	return icmp, svc
}

// Target is one selected probe destination.
type Target struct {
	Addr  uint32
	Proto simnet.Proto
	Port  uint16
	// Host is the system at Addr that answered selection, resolved
	// once here so a probe reads it instead of looking Addr up
	// (simnet.World.ProbeRand). Its prefix is the one probe loss and
	// brownouts are keyed on, which nothing requires to be the
	// selection prefix the target is listed under.
	Host *simnet.Host
}

// Selection is the outcome of the seed-probing pass.
type Selection struct {
	// Prefixes holds every responsive prefix with its targets, in the
	// canonical prefix order (netutil.ComparePrefixes). It is the one
	// place that order is decided: probe rounds, per-prefix results and
	// every join of two experiments downstream keep it.
	Prefixes []PrefixTargets
	Stats    SelectionStats
}

// PrefixTargets is one responsive prefix and its selected targets.
type PrefixTargets struct {
	Prefix  netutil.Prefix
	Targets []Target // up to maxPerPrefix, in selection order
}

// Targets returns p's selected targets, nil if p was not selected.
func (s *Selection) Targets(p netutil.Prefix) []Target {
	i, ok := slices.BinarySearchFunc(s.Prefixes, p, func(pt PrefixTargets, p netutil.Prefix) int {
		return netutil.ComparePrefixes(pt.Prefix, p)
	})
	if !ok {
		return nil
	}
	return s.Prefixes[i].Targets
}

// SelectionStats mirrors the §3.2 coverage numbers.
type SelectionStats struct {
	Prefixes          int // announced, probed prefixes
	WithISISeed       int
	WithAnySeed       int
	Responsive        int // prefixes with >=1 responsive target
	WithMaxTargets    int // prefixes with the full target count
	ISIOnly           int
	CensysOnly        int
	MixedOrigin       int
	CandidatesProbed  int
	ResponsiveTargets int
}

// maxCandidatesPerDataset is the per-dataset probing budget (§3.2:
// "up to ten addresses from the ISI history file ... and up to ten
// randomly selected address-port tuples in Censys data").
const maxCandidatesPerDataset = 10

// Select probes catalog candidates with the given responder lookup
// and picks up to maxPerPrefix targets per prefix (the paper uses
// three). responder returns the host that answers a candidate, nil if
// none does (simnet.World.Responder); each target keeps it. Select
// walks the prefixes in canonical order, duplicates collapsed;
// netutil.ExcludeCovered's output already is.
func Select(cat *Catalog, prefixes []netutil.Prefix, responder func(addr uint32, proto simnet.Proto) *simnet.Host, maxPerPrefix int) *Selection {
	prefixes = slices.Clone(prefixes)
	netutil.SortPrefixes(prefixes)
	prefixes = slices.Compact(prefixes)
	sel := &Selection{Prefixes: make([]PrefixTargets, 0, len(prefixes))}
	sel.Stats.Prefixes = len(prefixes)
	// Targets are gathered in a reused buffer and copied into a slab run
	// of exactly their count.
	var targetSlab slab.Slab[Target]
	var targets []Target
	for _, p := range prefixes {
		isi := cat.ISI[p]
		censys := cat.Censys[p]
		if len(isi) > 0 {
			sel.Stats.WithISISeed++
		}
		if len(isi) > 0 || len(censys) > 0 {
			sel.Stats.WithAnySeed++
		}
		targets = targets[:0]
		fromISI, fromCensys := false, false
		for i := 0; i < len(isi) && i < maxCandidatesPerDataset && len(targets) < maxPerPrefix; i++ {
			sel.Stats.CandidatesProbed++
			if h := responder(isi[i].Addr, simnet.ICMP); h != nil {
				targets = append(targets, Target{Addr: isi[i].Addr, Proto: simnet.ICMP, Host: h})
				fromISI = true
			}
		}
		for i := 0; i < len(censys) && i < maxCandidatesPerDataset && len(targets) < maxPerPrefix; i++ {
			sel.Stats.CandidatesProbed++
			svc := censys[i]
			if dup(targets, svc.Addr) {
				continue
			}
			if h := responder(svc.Addr, svc.Proto); h != nil {
				targets = append(targets, Target{Addr: svc.Addr, Proto: svc.Proto, Port: svc.Port, Host: h})
				fromCensys = true
			}
		}
		if len(targets) == 0 {
			continue
		}
		sel.Prefixes = append(sel.Prefixes, PrefixTargets{Prefix: p, Targets: targetSlab.Copy(targets)})
		sel.Stats.Responsive++
		sel.Stats.ResponsiveTargets += len(targets)
		if len(targets) == maxPerPrefix {
			sel.Stats.WithMaxTargets++
		}
		switch {
		case fromISI && fromCensys:
			sel.Stats.MixedOrigin++
		case fromISI:
			sel.Stats.ISIOnly++
		default:
			sel.Stats.CensysOnly++
		}
	}
	return sel
}

func dup(ts []Target, addr uint32) bool {
	for _, t := range ts {
		if t.Addr == addr {
			return true
		}
	}
	return false
}
