package fleet

import (
	"testing"
	"time"

	"fekf/internal/deepmd"
	"fekf/internal/online"
)

// routerFleet builds a bare fleet shell whose replica health and snapshot
// provenance the table controls directly: published[i] == 0 means replica
// i never published; otherwise it is both the snapshot's step and its
// publication-time offset in seconds.
func routerFleet(m *deepmd.Model, alive []bool, published []int64) *Fleet {
	f := &Fleet{}
	base := time.Unix(1000, 0)
	for i := range alive {
		r := &replica{id: i, Lane: online.NewLane("", nil, nil, online.NewReplay(1, 1, 0), online.GateConfig{})}
		r.alive.Store(alive[i])
		if published[i] > 0 {
			r.Publish(m, published[i], base.Add(time.Duration(published[i])*time.Second))
		}
		f.reps = append(f.reps, r)
	}
	f.router = &Router{f: f}
	return f
}

// The router's health/fallback ladder under mixed replica health: healthy
// rotation first, freshest-ever-published when no replica is healthy, nil
// (the serve tier's 503) only when nothing was ever published.
func TestRouterFreshestFallback(t *testing.T) {
	cases := []struct {
		name      string
		alive     []bool
		published []int64
		// want is the sequence of snapshot steps successive Snapshot()
		// calls must return (the rotation counter starts at 0, so it is
		// deterministic); a 0 entry means nil.
		want []int64
	}{
		{
			name:  "all healthy rotates",
			alive: []bool{true, true, true}, published: []int64{1, 2, 3},
			want: []int64{1, 2, 3, 1, 2, 3},
		},
		{
			name:  "dead replica skipped in rotation",
			alive: []bool{true, false, true}, published: []int64{1, 2, 3},
			// starts 0,1,2,0: index 1 is dead, so its slot falls through
			// to index 2
			want: []int64{1, 3, 3, 1},
		},
		{
			name:  "healthy preferred over fresher dead",
			alive: []bool{true, false}, published: []int64{1, 9},
			want: []int64{1, 1, 1},
		},
		{
			name:  "live but unpublished falls back to freshest dead",
			alive: []bool{true, false}, published: []int64{0, 5},
			want: []int64{5, 5},
		},
		{
			name:  "all dead serves freshest ever published",
			alive: []bool{false, false, false}, published: []int64{3, 9, 6},
			want: []int64{9, 9, 9},
		},
		{
			name:  "mid-scale mix: one catching up, one dead, one serving",
			alive: []bool{true, true, false}, published: []int64{4, 0, 7},
			// rotation: idx0 healthy; idx1 alive but unpublished → falls
			// through to idx2 (dead, skipped) → wraps to idx0
			want: []int64{4, 4, 4, 4},
		},
		{
			name:  "nothing ever published",
			alive: []bool{true, true}, published: []int64{0, 0},
			want: []int64{0, 0},
		},
		{
			name: "zero replicas", alive: nil, published: nil,
			want: []int64{0, 0},
		},
	}
	_, m, _ := fleetSetup(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := routerFleet(m, tc.alive, tc.published)
			for i, want := range tc.want {
				s := f.Snapshot()
				if want == 0 {
					if s != nil {
						t.Fatalf("call %d: got snapshot step %d, want nil", i, s.Step)
					}
					continue
				}
				if s == nil {
					t.Fatalf("call %d: got nil, want step %d", i, want)
				}
				if s.Step != want {
					t.Fatalf("call %d: got step %d, want %d", i, s.Step, want)
				}
			}
			// dead replicas never accrue routing credit
			for i, r := range f.reps {
				if !tc.alive[i] && r.routed.Load() != 0 {
					t.Fatalf("dead replica %d was routed %d predicts", i, r.routed.Load())
				}
			}
		})
	}
}
