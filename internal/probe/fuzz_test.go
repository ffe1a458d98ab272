package probe

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/seeds"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// FuzzReadJSON feeds arbitrary text to the probe-JSON reader: never
// panic; parsed rounds must re-encode.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"type":"ping","method":"icmp-echo","src":"163.253.63.63","dst":"16.0.0.1","config":"4-0","start_sec":100,"responded":true,"rx_ifname":"ens3f1np1.1001","rtt":12.5}`)
	f.Add(`{"dst":"10.0.0.1","config":"0-0"}` + "\n" + `{"dst":"10.0.0.2","config":"0-0"}`)
	f.Add(`{`)
	// Hostile archives: negative RTT, duplicated (dst, config) pairs,
	// rounds whose records arrive out of order, negative retry counts,
	// and RTTs at the edge of float parsing.
	f.Add(`{"dst":"10.0.0.1","config":"4-0","rtt":-12.5,"responded":true}`)
	f.Add(`{"dst":"10.0.0.1","config":"4-0","start_sec":100}` + "\n" + `{"dst":"10.0.0.1","config":"4-0","start_sec":200}`)
	f.Add(`{"dst":"10.0.0.1","config":"0-4","start_sec":500}` + "\n" + `{"dst":"10.0.0.2","config":"0-4","start_sec":100}`)
	f.Add(`{"dst":"10.0.0.1","config":"2-2","retries":-3,"responded":false}`)
	f.Add(`{"dst":"10.0.0.1","config":"1-1","rtt":1e308,"responded":true}`)
	f.Fuzz(func(t *testing.T, text string) {
		rounds, err := ReadJSON(strings.NewReader(text), func(addr uint32) (netutil.Prefix, bool) {
			return netutil.PrefixFrom(addr, 24), true
		})
		if err != nil {
			return
		}
		pr := &Prober{SrcAddr: "163.253.63.63"}
		for i := range rounds {
			var sb strings.Builder
			if err := pr.WriteJSON(&sb, &rounds[i]); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
	})
}

// lossyFixture is a -small world in which every probe is lost, and the
// first few prefixes of its selection: built once per fuzz process.
var lossyFixture = sync.OnceValues(func() (*Prober, *seeds.Selection) {
	cfg := simnet.DefaultWorldConfig()
	cfg.ProbeLossProb = 1
	_, _, sel, pr := buildWorld(topo.SmallConfig(), cfg)
	return pr, &seeds.Selection{Prefixes: sel.Prefixes[:8]}
})

// FuzzSlotRoundTrip: an outcome (responded, VLAN, retries, hops)
// written into a slot comes back whole through Record and a Cursor,
// whether it fits the slot's fields or takes the escape list. Then a
// probed round under total loss, whose policy makes attempts beyond
// the retries field with no budget, rebuilds every record's retries.
func FuzzSlotRoundTrip(f *testing.F) {
	f.Add(true, uint8(1), 0, 3, uint8(0))
	f.Add(false, uint8(0), maxSlotRetries, 0, uint8(5))
	f.Add(true, uint8(2), maxSlotRetries+1, 2, uint8(9))
	f.Add(true, uint8(1), 2, maxSlotHops+1, uint8(1))
	f.Add(false, uint8(0), -1, -7, uint8(2))
	f.Fuzz(func(t *testing.T, responded bool, vlan uint8, retries, hops int, at uint8) {
		o := outcome{responded: responded, vlan: simnet.VLAN(vlan % 3), retries: retries, hops: hops}
		if !o.responded {
			o.hops = 0 // the prober keeps no hop count without a reply
		}
		tgts := []seeds.Target{{Addr: 0x0a000001, Proto: simnet.ICMP}, {Addr: 0x0a000002, Proto: simnet.TCP, Port: 443}, {Addr: 0x0a000101, Proto: simnet.UDP, Port: 53}}
		sel := &seeds.Selection{Prefixes: []seeds.PrefixTargets{
			{Prefix: netutil.MustParsePrefix("10.0.0.0/24"), Targets: tgts[:2]},
			{Prefix: netutil.MustParsePrefix("10.0.1.0/24"), Targets: tgts[2:]},
		}}
		r := &Round{Start: 500, plan: newPlan(sel), rate: 2, slots: make([]uint16, len(tgts))}
		i := int(at) % len(tgts)
		r.escapes = put(r.slots, r.escapes, i, o)
		rec := r.Record(i)
		if rec.Responded != o.responded || rec.VLAN != o.vlan || rec.Retries != o.retries {
			t.Fatalf("outcome %+v came back as %+v", o, rec)
		}
		if want := rttMS(o.hops, tgts[i].Addr); o.responded && rec.RTTms != want {
			t.Fatalf("outcome %+v: RTT %v, want %v", o, rec.RTTms, want)
		}
		if rec.Dst != tgts[i].Addr || rec.Port != tgts[i].Port || rec.SentAt != 500+bgp.Time(i/2) {
			t.Fatalf("slot %d rebuilt as %+v", i, rec)
		}
		if got := records(r); got[i] != rec {
			t.Fatalf("cursor %+v, Record %+v", got[i], rec)
		}

		pr, lossy := lossyFixture()
		attempts := 2 + int(at)%(2*maxSlotRetries)
		pr.Retry = RetryPolicy{MaxAttempts: attempts, BaseBackoff: 1, MaxBackoff: 8}
		round := pr.Run("0-0", 1000, lossy)
		for j, rec := range records(round) {
			if rec.Retries != attempts-1 || rec.Responded || rec != round.Record(j) {
				t.Fatalf("%d attempts under total loss: record %d %+v", attempts, j, rec)
			}
		}
		if escaped := attempts-1 > maxSlotRetries; escaped != (len(round.escapes) == round.Len()) {
			t.Fatalf("%d attempts: %d escapes for %d slots", attempts, len(round.escapes), round.Len())
		}
	})
}
