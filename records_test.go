package repro

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// roundsDigest hashes every round of both experiments: its config,
// window and every field of every record, rebuilt one by one through
// Round.Record, the RTT by its bits.
func roundsDigest(s *core.Survey) string {
	h := sha256.New()
	for _, res := range []*core.Result{s.SURF, s.Internet2} {
		for _, rd := range res.Rounds {
			fmt.Fprintf(h, "round %s %d %d %d\n", rd.Config, rd.Start, rd.End, rd.Len())
			for i := 0; i < rd.Len(); i++ {
				rec := rd.Record(i)
				fmt.Fprintf(h, "%s %d %d %d %d %t %d %x %d\n", rec.Prefix, rec.Dst, rec.Proto, rec.Port,
					rec.SentAt, rec.Responded, rec.VLAN, math.Float64bits(rec.RTTms), rec.Retries)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestProbeRecordsDigest pins every record both experiments probe, at
// -small (seed 1) and at paper ÷ 4 (seed 11), survey_paper's size. The
// digests were taken when rounds still held 48-byte records; the
// rounds' two-byte slots must rebuild them exactly.
func TestProbeRecordsDigest(t *testing.T) {
	quarter := core.DefaultSurveyOptions()
	quarter.Topology = paperQuarter()
	for _, tc := range []struct {
		name string
		pl   *core.Pipeline
		want string
	}{
		{"small", core.NewPipeline(core.WithSmall(), core.WithSeed(1)), "1a6c08d4fffa2ea15adf37ef83b5fecd02649777e27cc2c072fd089105abdda6"},
		{"paper÷4", core.NewPipeline(core.WithSurvey(quarter), core.WithSeed(11)), "dac4fa1c97632c945a544805a2bf59ec1422a7f9b6e376b4261341e7c2214c8f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.pl.NewSurvey()
			s.RunBoth()
			if got := roundsDigest(s); got != tc.want {
				t.Errorf("records digest %s, want %s", got, tc.want)
			}
		})
	}
}
