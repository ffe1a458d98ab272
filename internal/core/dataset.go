package core

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/topo"
)

// This file is the reproduction's analog of the paper's public data
// release [25]: a self-contained JSON dataset holding, per prefix, the
// metadata and per-round observations that every analysis in this
// repository consumes, so results can be re-analysed (or compared
// against other runs) without re-simulation.

// DatasetVersion identifies the dump format.
const DatasetVersion = 1

// Dataset is the serialized form of one experiment pair.
type Dataset struct {
	Version  int             `json:"version"`
	Prefixes []DatasetPrefix `json:"prefixes"`
	// Configs is the schedule (labels, in round order).
	Configs []string `json:"configs"`
	// Churn carries the collector-observed measurement-prefix updates
	// of the second (Internet2) experiment.
	Churn []DatasetUpdate `json:"churn"`
}

// DatasetPrefix is one prefix's record.
type DatasetPrefix struct {
	Prefix string `json:"prefix"`
	Origin uint32 `json:"origin_asn"`
	// Class is "participant" or "peer-nren".
	Class  string `json:"class"`
	Region string `json:"region,omitempty"`
	// SURF / Internet2 are per-round observations ("re", "commodity",
	// "mixed", "loss") plus the derived inference.
	SURF      DatasetExperiment `json:"surf"`
	Internet2 DatasetExperiment `json:"internet2"`
}

// DatasetExperiment is one experiment's per-prefix view.
type DatasetExperiment struct {
	Rounds    []string `json:"rounds"`
	Inference string   `json:"inference"`
}

// DatasetUpdate is one collector-observed update.
type DatasetUpdate struct {
	At       int64  `json:"at"`
	PeerASN  uint32 `json:"peer_asn"`
	Announce bool   `json:"announce"`
	Path     string `json:"path,omitempty"`
}

// BuildDataset assembles the dump from a completed survey.
func BuildDataset(s *Survey) *Dataset {
	ds := &Dataset{Version: DatasetVersion}
	for _, cfg := range Schedule() {
		ds.Configs = append(ds.Configs, cfg.Label())
	}

	for _, pr := range s.SURF.PerPrefix {
		p := pr.Prefix
		pi := s.Eco.PrefixInfoFor(p)
		if pi == nil {
			continue
		}
		rec := DatasetPrefix{
			Prefix: p.String(),
			Origin: uint32(pi.Origin),
			Class:  classLabel(pi.NeighborClass),
			Region: pi.Region,
		}
		rec.SURF = experimentRecord(pr)
		rec.Internet2 = experimentRecord(s.Internet2.Find(p))
		ds.Prefixes = append(ds.Prefixes, rec)
	}
	for _, u := range s.Internet2.Churn {
		ds.Churn = append(ds.Churn, DatasetUpdate{
			At:       int64(u.At),
			PeerASN:  uint32(u.PeerAS),
			Announce: u.Announce,
			Path:     u.Path.String(),
		})
	}
	return ds
}

func classLabel(c topo.Class) string {
	if c == topo.ClassPeerNREN {
		return "peer-nren"
	}
	return "participant"
}

func experimentRecord(pr *PrefixResult) DatasetExperiment {
	var out DatasetExperiment
	if pr == nil {
		out.Inference = InfUnresponsive.String()
		return out
	}
	for _, obs := range pr.Seq {
		out.Rounds = append(out.Rounds, obs.String())
	}
	out.Inference = pr.Inference.String()
	return out
}

// WriteDataset emits the gzip-compressed JSON dump.
func WriteDataset(w io.Writer, ds *Dataset) error {
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	if err := enc.Encode(ds); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return gz.Close()
}

// ReadDataset parses a dump written by WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer gz.Close()
	var ds Dataset
	if err := json.NewDecoder(gz).Decode(&ds); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if ds.Version != DatasetVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", ds.Version)
	}
	return &ds, nil
}

// Reclassify re-derives each prefix's inference from its stored round
// observations and compares with the recorded inference — the dump's
// internal consistency check, and the entry point for re-analysis.
func (ds *Dataset) Reclassify() (mismatches []string) {
	for _, rec := range ds.Prefixes {
		for _, exp := range []struct {
			name string
			e    DatasetExperiment
		}{{"surf", rec.SURF}, {"internet2", rec.Internet2}} {
			seq := make([]RoundObs, len(exp.e.Rounds))
			for i, s := range exp.e.Rounds {
				seq[i] = parseObs(s)
			}
			if got := Classify(seq).String(); got != exp.e.Inference {
				mismatches = append(mismatches,
					fmt.Sprintf("%s/%s: stored %q, derived %q", rec.Prefix, exp.name, exp.e.Inference, got))
			}
		}
	}
	sort.Strings(mismatches)
	return mismatches
}

func parseObs(s string) RoundObs {
	switch s {
	case "re":
		return ObsRE
	case "commodity":
		return ObsCommodity
	case "mixed":
		return ObsMixed
	default:
		return ObsLoss
	}
}

// ChurnRecords converts the dump's churn back to engine records (for
// BuildChurnTimeline-style reanalysis).
func (ds *Dataset) ChurnRecords() []bgp.UpdateRecord {
	out := make([]bgp.UpdateRecord, 0, len(ds.Churn))
	for _, u := range ds.Churn {
		rec := bgp.UpdateRecord{
			At:       bgp.Time(u.At),
			PeerAS:   asn.AS(u.PeerASN),
			Announce: u.Announce,
		}
		if u.Path != "" {
			if p, err := asn.ParsePath(u.Path); err == nil {
				rec.Path = p
			}
		}
		out = append(out, rec)
	}
	return out
}
