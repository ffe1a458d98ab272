package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	snap "repro/internal/snapshot"
)

// Durable job state. Each job owns one directory under the server's
// data dir, dataDir/job-<seq>/, holding job.rjob (the RJOB manifest:
// spec, lifecycle state, and — once done — the output document) next
// to the job's RCKP checkpoint files. Every write goes through
// snap.WriteFileAtomic (temp, fsync, rename), so a crash at any instant
// leaves either the old or the new manifest, never a torn or empty one;
// a restarted server rebuilds its entire job table from these
// directories alone.

// RJOB section ids, in file order.
const (
	jobSecSpec   = 1
	jobSecState  = 2
	jobSecOutput = 3
)

// jobRecord is the decoded durable state of one job.
type jobRecord struct {
	Seq    uint64
	Spec   JobSpec
	State  State
	Error  string
	Output []byte
}

func (r *jobRecord) id() string { return jobID(r.Seq) }

func jobID(seq uint64) string { return fmt.Sprintf("job-%06d", seq) }

func encodeJob(r *jobRecord) []byte {
	w := snap.NewWriter(snap.JobMagic, snap.JobVersion)

	// The spec is the full portable JobOptions.
	var sp snap.Enc
	sp.String(r.Spec.Tenant)
	sp.U8(uint8(r.Spec.kind))
	sp.Bool(r.Spec.Options.Small)
	sp.String(r.Spec.Options.Scale)
	sp.I64(r.Spec.Options.Seed)
	sp.Uvarint(uint64(r.Spec.Options.Workers))
	sp.F64(r.Spec.Options.Faults)
	sp.Bool(true) // reserved, see FORMAT.md: where the two-path engine recorded its mode
	sp.String(r.Spec.Options.Workload)
	sp.I64(r.Spec.Options.DurationSeconds)
	sp.Bool(r.Spec.Options.RoundMode)
	sp.String(r.Spec.Options.Scenario)
	sp.F64(r.Spec.Options.ROV)
	sp.String(r.Spec.Options.Objective)
	sp.Uvarint(uint64(r.Spec.Options.Budget))
	sp.String(r.Spec.Options.Strategy)
	sp.F64(r.Spec.TimeoutSeconds)
	w.Section(jobSecSpec, sp.Bytes())

	var st snap.Enc
	st.Uvarint(r.Seq)
	st.U8(uint8(r.State))
	st.String(r.Error)
	w.Section(jobSecState, st.Bytes())

	w.Section(jobSecOutput, r.Output)
	return w.Bytes()
}

func decodeJob(data []byte) (*jobRecord, error) {
	secs, err := snap.DecodeSections(data, snap.JobMagic, snap.JobVersion)
	if err != nil {
		return nil, err
	}
	if len(secs) != 3 {
		return nil, fmt.Errorf("%w: %d sections, want 3", snap.ErrCorrupt, len(secs))
	}
	for i, want := range []byte{jobSecSpec, jobSecState, jobSecOutput} {
		if secs[i].ID != want {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", snap.ErrCorrupt, i, secs[i].ID, want)
		}
	}
	r := &jobRecord{}

	d := snap.NewDec(secs[0].Payload)
	r.Spec.Tenant = d.String()
	r.Spec.kind = jobKind(d.U8())
	r.Spec.Options.Small = d.Bool()
	r.Spec.Options.Scale = d.String()
	r.Spec.Options.Seed = d.I64()
	r.Spec.Options.Workers = int(d.Uvarint())
	r.Spec.Options.Faults = d.F64()
	d.Bool() // reserved engine-mode byte
	r.Spec.Options.Workload = d.String()
	r.Spec.Options.DurationSeconds = d.I64()
	r.Spec.Options.RoundMode = d.Bool()
	r.Spec.Options.Scenario = d.String()
	r.Spec.Options.ROV = d.F64()
	r.Spec.Options.Objective = d.String()
	r.Spec.Options.Budget = int(d.Uvarint())
	r.Spec.Options.Strategy = d.String()
	r.Spec.TimeoutSeconds = d.F64()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if r.Spec.kind >= numJobKinds {
		return nil, fmt.Errorf("%w: job kind %d", snap.ErrCorrupt, r.Spec.kind)
	}
	// A record is re-queued as it stands, so it must be a spec the
	// submission endpoint would accept.
	r.Spec.Kind = r.Spec.kind.String()
	if err := r.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}

	d = snap.NewDec(secs[1].Payload)
	r.Seq = d.Uvarint()
	r.State = State(d.U8())
	r.Error = d.String()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if r.State >= numStates {
		return nil, fmt.Errorf("%w: job state %d", snap.ErrCorrupt, r.State)
	}

	r.Output = secs[2].Payload
	return r, nil
}

// writeJobRecord persists one manifest atomically into the job's
// directory (created on first write).
func writeJobRecord(dataDir string, r *jobRecord) error {
	return snap.WriteFileAtomic(filepath.Join(dataDir, r.id()), "job.rjob", encodeJob(r))
}

// loadJobRecords scans the data dir and returns every decodable job
// manifest in sequence order, plus the count of corrupt ones skipped.
func loadJobRecords(dataDir string) ([]*jobRecord, int) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, 0
	}
	var recs []*jobRecord
	corrupt := 0
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dataDir, ent.Name(), "job.rjob"))
		if err != nil {
			continue
		}
		r, err := decodeJob(data)
		if err != nil {
			corrupt++
			fmt.Fprintf(os.Stderr, "resurveyd: job manifest %s unusable, skipping: %v\n", ent.Name(), err)
			continue
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, corrupt
}
