package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestSweepPointsWorkerInvariance pins the loop both sweeps share:
// outcomes come back in point order and the merged registry's
// zero-duration manifest is byte-identical at any worker count.
func TestSweepPointsWorkerInvariance(t *testing.T) {
	const n = 7
	run := func(workers int) ([]int, []byte) {
		reg := telemetry.New()
		pts, err := sweepPoints(context.Background(), n, workers, reg, "testsweep",
			func(i int, sub *telemetry.Registry) int {
				sp := sub.StartSpan(fmt.Sprintf("testsweep:point=%d", i))
				defer sp.End()
				sub.Counter("points_total").Inc()
				sub.Counter("index_sum").Add(int64(i))
				sub.Gauge(telemetry.Label("point_square", "i", fmt.Sprint(i))).Set(float64(i * i))
				return i * i
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m, err := reg.Snapshot(telemetry.SnapshotOptions{Version: "test", ZeroDurations: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Counter("points_total"); got != n {
			t.Fatalf("workers=%d: merged points_total = %d, want %d", workers, got, n)
		}
		if len(m.Parallel.Shards) != n {
			t.Fatalf("workers=%d: %d shard timings, want %d", workers, len(m.Parallel.Shards), n)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return pts, buf.Bytes()
	}
	want, wantManifest := run(1)
	if !reflect.DeepEqual(want, []int{0, 1, 4, 9, 16, 25, 36}) {
		t.Fatalf("points out of order: %v", want)
	}
	for _, workers := range []int{2, 8} {
		got, manifest := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: points %v, want %v", workers, got, want)
		}
		if !bytes.Equal(manifest, wantManifest) {
			t.Errorf("workers=%d: merged manifest differs from workers=1:\n%s\n--- want ---\n%s", workers, manifest, wantManifest)
		}
	}
}

// A pre-cancelled context runs no point body, returns the context's
// error with nil points, and merges nothing.
func TestSweepPointsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := telemetry.New()
	pts, err := sweepPoints(ctx, 4, 2, reg, "testsweep", func(i int, sub *telemetry.Registry) int {
		t.Errorf("point %d ran under a cancelled context", i)
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Errorf("cancelled sweep returned %v, want nil", pts)
	}
	m, err := reg.Snapshot(telemetry.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parallel.Shards) != 0 || len(m.Metrics.Counters) != 0 {
		t.Errorf("cancelled sweep touched the registry: %+v", m)
	}
}

// Without a registry every point gets a nil sub-registry and the merge
// and timing steps are no-ops.
func TestSweepPointsNilRegistry(t *testing.T) {
	pts, err := sweepPoints(context.Background(), 3, 2, nil, "testsweep", func(i int, sub *telemetry.Registry) int {
		if sub != nil {
			t.Errorf("point %d got a live sub-registry without sweep metrics", i)
		}
		sub.Counter("points_total").Inc() // nil registry: free no-op
		return i + 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, []int{1, 2, 3}) {
		t.Errorf("points = %v, want [1 2 3]", pts)
	}
}
