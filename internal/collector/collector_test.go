package collector

import (
	"bytes"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
)

// smallNet builds origin -> relay -> collector.
func smallNet(t *testing.T) (*bgp.Network, bgp.RouterID, netutil.Prefix) {
	t.Helper()
	net := bgp.NewNetwork()
	net.AddSpeaker(1, 65001, "origin")
	net.AddSpeaker(2, 65002, "relay")
	col := net.AddSpeaker(3, 65003, "collector")
	col.Collector = true
	cust := bgp.PeerConfig{ClassifyAs: bgp.ClassCustomer, ImportLocalPref: bgp.LocalPrefCustomer, ExportAllow: bgp.GaoRexfordExport(bgp.ClassCustomer)}
	prov := bgp.PeerConfig{ClassifyAs: bgp.ClassProvider, ImportLocalPref: bgp.LocalPrefProvider, ExportAllow: bgp.GaoRexfordExport(bgp.ClassProvider)}
	net.Connect(1, 2, prov, cust) // 1 is 2's customer
	net.Connect(2, 3,
		bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet(bgp.ClassOwn, bgp.ClassCustomer, bgp.ClassPeer, bgp.ClassProvider, bgp.ClassREPeer)},
		bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet()})
	p := netutil.MustParsePrefix("203.0.113.0/24")
	net.Originate(1, p)
	net.RunToQuiescence()
	return net, 3, p
}

func TestSnapshot(t *testing.T) {
	net, col, p := smallNet(t)
	rib := Snapshot(net, col, []netutil.Prefix{p})
	if rib == nil || len(rib.Routes) != 1 {
		t.Fatalf("snapshot = %+v", rib)
	}
	r := rib.Routes[0]
	if r.PeerAS != 65002 || r.Prefix != p {
		t.Errorf("route = %+v", r)
	}
	want := asn.MustParsePath("65002 65001")
	if !r.Path.Equal(want) {
		t.Errorf("path = %v, want %v", r.Path, want)
	}
	origins := rib.Origins(p)
	if len(origins) != 1 || origins[0] != 65001 {
		t.Errorf("origins = %v", origins)
	}
	if Snapshot(net, 99, nil) != nil {
		t.Error("unknown collector should return nil")
	}
}

func TestRIBMRTRoundTrip(t *testing.T) {
	net, col, p := smallNet(t)
	rib := Snapshot(net, col, []netutil.Prefix{p})
	var buf bytes.Buffer
	if err := rib.WriteMRT(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMRTRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routes) != len(rib.Routes) {
		t.Fatalf("routes %d vs %d", len(got.Routes), len(rib.Routes))
	}
	for i := range got.Routes {
		a, b := got.Routes[i], rib.Routes[i]
		if a.PeerAS != b.PeerAS || a.Prefix != b.Prefix || !a.Path.Equal(b.Path) || a.Origin != b.Origin {
			t.Errorf("route %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestUpdatesMRTRoundTrip(t *testing.T) {
	net, _, p := smallNet(t)
	if len(net.Churn.Records) == 0 {
		t.Fatal("no churn recorded")
	}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, net.Churn.Records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(net.Churn.Records) {
		t.Fatalf("records %d vs %d", len(got), len(net.Churn.Records))
	}
	for i := range got {
		a, b := got[i], net.Churn.Records[i]
		if a.At != b.At || a.PeerAS != b.PeerAS || a.Prefix != b.Prefix ||
			a.Announce != b.Announce || !a.Path.Equal(b.Path) {
			t.Errorf("record %d: %+v vs %+v", i, a, b)
		}
	}
	_ = p
}

func TestSnapshotMultiplePrefixesAndPeers(t *testing.T) {
	net := bgp.NewNetwork()
	net.AddSpeaker(1, 65001, "o1")
	net.AddSpeaker(2, 65002, "o2")
	col := net.AddSpeaker(3, 65003, "col")
	col.Collector = true
	exportAll := bgp.NewClassSet(bgp.ClassOwn, bgp.ClassCustomer, bgp.ClassPeer, bgp.ClassProvider, bgp.ClassREPeer)
	for _, id := range []bgp.RouterID{1, 2} {
		net.Connect(id, 3,
			bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: exportAll},
			bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet()})
	}
	p1 := netutil.MustParsePrefix("10.1.0.0/16")
	p2 := netutil.MustParsePrefix("10.2.0.0/16")
	net.Originate(1, p1)
	net.Originate(2, p1) // both announce p1 (anycast-style)
	net.Originate(2, p2)
	net.RunToQuiescence()

	rib := Snapshot(net, 3, []netutil.Prefix{p1, p2})
	if len(rib.Routes) != 3 {
		t.Fatalf("routes = %d, want 3", len(rib.Routes))
	}
	// Deterministic order: by prefix then peer AS.
	if rib.Routes[0].Prefix != p1 || rib.Routes[0].PeerAS != 65001 ||
		rib.Routes[1].Prefix != p1 || rib.Routes[1].PeerAS != 65002 ||
		rib.Routes[2].Prefix != p2 {
		t.Errorf("order wrong: %+v", rib.Routes)
	}
	origins := rib.Origins(p1)
	if len(origins) != 2 || origins[0] != 65001 || origins[1] != 65002 {
		t.Errorf("Origins(p1) = %v", origins)
	}
	if got := rib.RoutesFor(netutil.MustParsePrefix("172.16.0.0/12")); got != nil {
		t.Errorf("RoutesFor(absent) = %v", got)
	}
}

func TestReadMRTRIBRejectsUpdateStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, []bgp.UpdateRecord{{At: 1, PeerAS: 2, Prefix: netutil.MustParsePrefix("10.0.0.0/8"), Announce: true, Path: asn.Path{1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMRTRIB(&buf); err == nil {
		t.Error("RIB reader should reject an update stream")
	}
	var buf2 bytes.Buffer
	rib := &RIB{Routes: []PeerRoute{{PeerAS: 1, Prefix: netutil.MustParsePrefix("10.0.0.0/8"), Path: asn.Path{1}}}}
	if err := rib.WriteMRT(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadUpdates(&buf2); err == nil {
		t.Error("update reader should reject a RIB stream")
	}
}
