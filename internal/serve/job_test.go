package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	snap "repro/internal/snapshot"
)

// TestTimeoutRange: timeout_seconds is accepted only where it converts
// to a positive time.Duration. Past ~9.2e9 seconds the conversion
// overflows to a negative duration, which would deadline the job
// before it starts; a job record carrying such a value is corrupt.
func TestTimeoutRange(t *testing.T) {
	for _, tc := range []struct {
		sec float64
		ok  bool
	}{
		{0, true}, {1e-9, true}, {0.02, true}, {30, true}, {9e9, true},
		{-1, false}, {1e-12, false}, {9.3e9, false}, {1e10, false}, {1e300, false},
		{math.Inf(1), false}, {math.Inf(-1), false}, {math.NaN(), false},
	} {
		spec := JobSpec{Options: core.JobOptions{Small: true}, TimeoutSeconds: tc.sec}
		err := spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("timeout_seconds %v: Validate = %v, want ok %v", tc.sec, err, tc.ok)
		}
		if err == nil && tc.sec > 0 && spec.timeout() <= 0 {
			t.Errorf("timeout_seconds %v accepted with deadline %v", tc.sec, spec.timeout())
		}
		r := &jobRecord{Seq: 1, Spec: spec, State: StateQueued}
		_, err = decodeJob(encodeJob(r))
		if tc.ok && err != nil {
			t.Errorf("timeout_seconds %v: job record does not reload: %v", tc.sec, err)
		}
		if !tc.ok && !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("timeout_seconds %v: job record reloads with err %v, want ErrCorrupt", tc.sec, err)
		}
	}
}

// FuzzJobSpec decodes arbitrary bytes as a submission body, exactly as
// the POST /jobs handler does, and validates it. Nothing may panic, and
// every accepted spec must carry a usable deadline, round-trip its
// options through JSON, and reload from its own job record.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"kind": "survey", "options": {"small": true}, "timeout_seconds": 30}`,
		`{"kind": "sweep", "options": {"faults": 0.5}}`,
		`{"kind": "workload", "options": {"workload": "update-storm", "duration_seconds": 600}}`,
		`{"kind": "scenario", "options": {"scenario": "hijack", "rov": 0.5}}`,
		`{"kind": "optimize", "options": {"objective": "catchment:re=0.5", "budget": 16, "strategy": "evolve"}}`,
		`{"timeout_seconds": 1e10}`,
		`{"timeout_seconds": 1e-12}`,
		`{"tenant": "a", "options": {"seed": -3, "workers": 2, "scale": "paper"}}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if d := spec.timeout(); (spec.TimeoutSeconds == 0) != (d == 0) || d < 0 {
			t.Fatalf("timeout_seconds %v accepted with deadline %v", spec.TimeoutSeconds, d)
		}
		enc, err := json.Marshal(spec.Options)
		if err != nil {
			t.Fatalf("accepted options do not encode: %v", err)
		}
		var back core.JobOptions
		dec = json.NewDecoder(bytes.NewReader(enc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("options %s do not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(back, spec.Options) {
			t.Fatalf("options round trip:\n got %+v\nwant %+v", back, spec.Options)
		}
		r, err := decodeJob(encodeJob(&jobRecord{Spec: spec}))
		if err != nil {
			t.Fatalf("accepted spec does not reload from its job record: %v", err)
		}
		if err := r.Spec.Validate(); err != nil || r.Spec != spec {
			t.Fatalf("reloaded spec %+v (Validate: %v), want %+v", r.Spec, err, spec)
		}
	})
}

// TestJobRecordRevalidated: a job record is re-queued as it stands, so
// one holding options the submission endpoint would refuse is corrupt.
// Such records can only be crafted: the encoder writes what it is given.
func TestJobRecordRevalidated(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"faults NaN", JobSpec{kind: kindSweep, Options: core.JobOptions{Faults: math.NaN()}}},
		{"scale planet", JobSpec{kind: kindSurvey, Options: core.JobOptions{Scale: "planet"}}},
		{"workload bogus", JobSpec{kind: kindWorkload, Options: core.JobOptions{Workload: "bogus"}}},
		{"workers 2^63", JobSpec{kind: kindSurvey, Options: core.JobOptions{Workers: math.MinInt64}}},
	} {
		tc.spec.Tenant = "mallory"
		r := &jobRecord{Seq: uint64(i + 1), Spec: tc.spec, State: StateQueued}
		if _, err := decodeJob(encodeJob(r)); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: decodeJob err = %v, want ErrCorrupt", tc.name, err)
		}
		if err := writeJobRecord(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	if recs, corrupt := loadJobRecords(dir); len(recs) != 0 || corrupt != 4 {
		t.Errorf("scan loaded %d records with %d corrupt, want 0 and 4", len(recs), corrupt)
	}
}
