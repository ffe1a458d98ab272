// Package collector models the public BGP view infrastructure
// (RouteViews / RIPE RIS): RIB snapshots of what each peer currently
// exports to a collector, update streams, and their MRT-format export,
// the inputs to the paper's Tables 3-4 and Figure 3 analyses.
package collector

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/netutil"
)

// PeerRoute is one (peer, prefix) route held at a collector.
type PeerRoute struct {
	PeerAS asn.AS
	Prefix netutil.Prefix
	Path   asn.Path
	Origin bgp.Origin
	MED    uint32
}

// RIB is a collector's table snapshot at a point in time.
type RIB struct {
	Collector bgp.RouterID
	At        bgp.Time
	Routes    []PeerRoute
}

// Snapshot captures the current adj-RIB-in of a collector speaker for
// the given prefixes.
func Snapshot(net *bgp.Network, col bgp.RouterID, prefixes []netutil.Prefix) *RIB {
	s := net.Speaker(col)
	if s == nil {
		return nil
	}
	rib := &RIB{Collector: col, At: net.Now()}
	for _, p := range prefixes {
		for _, nb := range s.Peers() {
			r := s.AdjIn(p, nb)
			if r == nil {
				continue
			}
			rib.Routes = append(rib.Routes, PeerRoute{
				PeerAS: r.FromAS,
				Prefix: p,
				Path:   r.Path,
				Origin: r.Origin,
				MED:    r.MED,
			})
		}
	}
	slices.SortFunc(rib.Routes, func(a, b PeerRoute) int {
		if c := netutil.ComparePrefixes(a.Prefix, b.Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a.PeerAS, b.PeerAS)
	})
	return rib
}

// RoutesFor returns the snapshot's routes for one prefix.
func (r *RIB) RoutesFor(p netutil.Prefix) []PeerRoute {
	var out []PeerRoute
	for _, pr := range r.Routes {
		if pr.Prefix == p {
			out = append(out, pr)
		}
	}
	return out
}

// Origins returns the distinct origin ASes the snapshot shows for a
// prefix, sorted — the §4.1.1 congruence signal.
func (r *RIB) Origins(p netutil.Prefix) []asn.AS {
	set := map[asn.AS]bool{}
	for _, pr := range r.RoutesFor(p) {
		set[pr.Path.Origin()] = true
	}
	out := make([]asn.AS, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteMRT serializes the snapshot.
func (r *RIB) WriteMRT(w io.Writer) error {
	mw := mrt.NewWriter(w)
	for i := range r.Routes {
		pr := &r.Routes[i]
		e := &mrt.RIBEntry{
			Timestamp: int64(r.At),
			PeerAS:    pr.PeerAS,
			Prefix:    pr.Prefix,
			Path:      pr.Path,
			Origin:    uint8(pr.Origin),
			MED:       pr.MED,
		}
		if err := mw.WriteRIBEntry(e); err != nil {
			return fmt.Errorf("collector: %w", err)
		}
	}
	return mw.Flush()
}

// ReadMRTRIB parses a snapshot written by WriteMRT.
func ReadMRTRIB(rd io.Reader) (*RIB, error) {
	mr := mrt.NewReader(rd)
	rib := &RIB{}
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			return rib, nil
		}
		if err != nil {
			return nil, err
		}
		e, ok := rec.(*mrt.RIBEntry)
		if !ok {
			return nil, fmt.Errorf("collector: unexpected %T in RIB stream", rec)
		}
		rib.At = bgp.Time(e.Timestamp)
		rib.Routes = append(rib.Routes, PeerRoute{
			PeerAS: e.PeerAS,
			Prefix: e.Prefix,
			Path:   e.Path,
			Origin: bgp.Origin(e.Origin),
			MED:    e.MED,
		})
	}
}

// WriteUpdates serializes collector-observed updates (Figure 3's raw
// material) to MRT.
func WriteUpdates(w io.Writer, records []bgp.UpdateRecord) error {
	mw := mrt.NewWriter(w)
	for _, rec := range records {
		u := &mrt.Update{
			Timestamp: int64(rec.At),
			PeerAS:    rec.PeerAS,
			Prefix:    rec.Prefix,
			Announce:  rec.Announce,
			Path:      rec.Path,
		}
		if err := mw.WriteUpdate(u); err != nil {
			return fmt.Errorf("collector: %w", err)
		}
	}
	return mw.Flush()
}

// ReadUpdates parses an update stream written by WriteUpdates.
func ReadUpdates(rd io.Reader) ([]bgp.UpdateRecord, error) {
	mr := mrt.NewReader(rd)
	var out []bgp.UpdateRecord
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		u, ok := rec.(*mrt.Update)
		if !ok {
			return nil, fmt.Errorf("collector: unexpected %T in update stream", rec)
		}
		out = append(out, bgp.UpdateRecord{
			At:       bgp.Time(u.Timestamp),
			PeerAS:   u.PeerAS,
			Prefix:   u.Prefix,
			Announce: u.Announce,
			Path:     u.Path,
		})
	}
}
