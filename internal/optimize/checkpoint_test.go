package optimize

import (
	"math"
	"strings"
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
)

func ckptSetup(t *testing.T) (*dataset.Dataset, *deepmd.Model) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 8, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("ckpt", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	return ds, m
}

// A restored FEKF must resume bitwise: identical λ, update counter and P,
// and an identical weight trajectory on identical minibatches.
func TestFEKFCheckpointResumesBitwise(t *testing.T) {
	ds, m := ckptSetup(t)
	opt := NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	idx := []int{0, 1, 2, 3}
	for s := 0; s < 3; s++ {
		if _, err := opt.Step(m, ds, idx); err != nil {
			t.Fatal(err)
		}
	}

	ck := opt.Checkpoint()
	m2 := m.Clone()
	opt2, err := RestoreFEKF(ck, m2)
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Lambda() != opt.Lambda() {
		t.Fatalf("restored λ %v, want %v", opt2.Lambda(), opt.Lambda())
	}
	if opt2.Updates() != opt.Updates() {
		t.Fatalf("restored updates %d, want %d", opt2.Updates(), opt.Updates())
	}
	for i := range opt.ks.P {
		for j, v := range opt.ks.P[i].Data {
			if opt2.ks.P[i].Data[j] != v {
				t.Fatalf("P block %d element %d differs after restore", i, j)
			}
		}
	}

	// same minibatch on both: trajectories must stay bitwise identical
	for s := 0; s < 2; s++ {
		if _, err := opt.Step(m, ds, idx); err != nil {
			t.Fatal(err)
		}
		if _, err := opt2.Step(m2, ds, idx); err != nil {
			t.Fatal(err)
		}
	}
	w1 := m.Params.FlattenValues()
	w2 := m2.Params.FlattenValues()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d diverged after resume: %v vs %v", i, w1[i], w2[i])
		}
	}
	if opt.Lambda() != opt2.Lambda() {
		t.Fatalf("λ diverged after resume: %v vs %v", opt.Lambda(), opt2.Lambda())
	}
	for i := range opt.ks.P {
		for j, v := range opt.ks.P[i].Data {
			if opt2.ks.P[i].Data[j] != v {
				t.Fatalf("P diverged after resume at block %d element %d", i, j)
			}
		}
	}
}

func TestFEKFCheckpointBeforeFirstStep(t *testing.T) {
	_, m := ckptSetup(t)
	opt := NewFEKF()
	ck := opt.Checkpoint()
	if ck.Kalman != nil {
		t.Fatal("expected nil Kalman state before the first step")
	}
	opt2, err := RestoreFEKF(ck, m)
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Lambda() != opt.KCfg.Lambda0 || opt2.Updates() != 0 || opt2.PDiagonal() != nil {
		t.Fatalf("fresh restore not pristine: λ=%v updates=%d", opt2.Lambda(), opt2.Updates())
	}
}

// A checkpoint that does not fit the model, or whose P is not bitwise
// symmetric, is rejected — and leaves the device's live memory unchanged.
func TestRestoreKalmanStateValidates(t *testing.T) {
	ds, m := ckptSetup(t)
	opt := NewFEKF()
	if _, err := opt.Step(m, ds, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	sizes := m.Params.LayerSizes()
	n := opt.ks.Blocks[0].Size()
	for _, tc := range []struct {
		name  string
		sizes []int
		bad   func(ck *KalmanCheckpoint)
	}{
		// wrong layer structure must be rejected, not silently mis-mapped
		{"layer sizes", []int{3, 5}, func(*KalmanCheckpoint) {}},
		{"truncated block", sizes, func(ck *KalmanCheckpoint) { ck.P[0] = ck.P[0][:len(ck.P[0])-1] }},
		{"missing block", sizes, func(ck *KalmanCheckpoint) { ck.P = ck.P[:len(ck.P)-1] }},
		{"asymmetric", sizes, func(ck *KalmanCheckpoint) {
			ck.P[0][1*n+2] = math.Nextafter(ck.P[0][1*n+2], math.Inf(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := opt.ks.Checkpoint()
			tc.bad(ck)
			live := m.Dev.Counters().LiveBytes
			if _, err := RestoreKalmanState(ck, tc.sizes, m.Dev); err == nil {
				t.Fatal("restore accepted a bad checkpoint")
			} else if tc.name == "asymmetric" && !strings.Contains(err.Error(), "block 0 is not symmetric: P[1][2]") {
				t.Fatalf("error %q does not name the block and element", err)
			}
			if got := m.Dev.Counters().LiveBytes; got != live {
				t.Fatalf("rejected restore changed live device bytes %d -> %d", live, got)
			}
		})
	}
}

// identityRows returns rows [lo,hi) of the n×n identity, row-major.
func identityRows(n, lo, hi int) []float64 {
	rows := make([]float64, (hi-lo)*n)
	for r := lo; r < hi; r++ {
		rows[(r-lo)*n+r] = 1
	}
	return rows
}

// A slab checkpoint whose slabs do not tile each block exactly — rows held
// twice, or a row missing — is rejected by Validate and by NewStateFrom
// with an error, never a panic, and NewStateFrom allocates nothing.  The
// overlap case hides row 5 from the binary row search, which read it as a
// nil slab when overlaps passed the coverage check.
func TestSlabCheckpointRejectsBadTiling(t *testing.T) {
	const n = 10
	blocks := []Block{{Lo: 0, Hi: n}}
	slab := func(lo, hi int) SlabRows { return SlabRows{RowLo: lo, RowHi: hi, Rows: identityRows(n, lo, hi)} }
	for _, tc := range []struct {
		name   string
		shards []SlabRows
		want   string
	}{
		{"overlap", []SlabRows{slab(0, 10), slab(1, 2), slab(3, 4)}, "rows [1,2) do not follow row 10"},
		{"duplicate", []SlabRows{slab(0, 5), slab(0, 5), slab(5, 10)}, "rows [0,5) do not follow row 5"},
		{"gap", []SlabRows{slab(0, 4), slab(5, 10)}, "rows [5,10) do not follow row 4"},
		{"missing tail", []SlabRows{slab(0, 4), slab(4, 9)}, "missing block 0 row 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := &SlabCheckpoint{Cfg: DefaultKalmanConfig(), Lambda: 0.98, Sizes: []int{n}, Shards: tc.shards}
			if err := ck.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error = %v, want one containing %q", err, tc.want)
			}
			dev := device.New("tiling", device.A100())
			if _, err := NewStateFrom(ck, blocks, WholeSlabs(blocks), dev); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewStateFrom error = %v, want one containing %q", err, tc.want)
			}
			if live := dev.Counters().LiveBytes; live != 0 {
				t.Fatalf("rejected restore left %d live device bytes", live)
			}
		})
	}
	ck := &SlabCheckpoint{Cfg: DefaultKalmanConfig(), Lambda: 0.98, Sizes: []int{n},
		Shards: []SlabRows{slab(4, 10), slab(0, 4)}}
	if err := ck.Validate(); err != nil {
		t.Fatalf("an exact tiling out of order was rejected: %v", err)
	}
	st, err := NewStateFrom(ck, blocks, []Slab{{RowLo: 2, RowHi: 7}}, device.New("tiling", device.A100()))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < n; c++ {
			want := 0.0
			if c == r+2 {
				want = 1
			}
			if st.P[0].At(r, c) != want {
				t.Fatalf("restored P[%d][%d] = %v, want %v", r+2, c, st.P[0].At(r, c), want)
			}
		}
	}
}

func TestPDiagonalAlignedAndFinite(t *testing.T) {
	ds, m := ckptSetup(t)
	opt := NewFEKF()
	if opt.PDiagonal() != nil {
		t.Fatal("PDiagonal before first step must be nil")
	}
	if _, err := opt.Step(m, ds, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	pd := opt.PDiagonal()
	if len(pd) != m.NumParams() {
		t.Fatalf("PDiagonal has %d entries for %d params", len(pd), m.NumParams())
	}
	for i, v := range pd {
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("P diagonal %d is %v, want positive finite", i, v)
		}
	}
	// cross-check against the raw blocks
	for bi, b := range opt.ks.Blocks {
		for j := 0; j < b.Size(); j++ {
			if pd[b.Lo+j] != opt.ks.P[bi].At(j, j) {
				t.Fatalf("PDiagonal misaligned at block %d offset %d", bi, j)
			}
		}
	}
}
