package fleet

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"fekf/internal/guard"
	"fekf/internal/online"
	"fekf/internal/tensor"
)

// ckDigest pins what a committed checkpoint resumes to: the step, the
// filter's (λ, updates), and xor-folds of the weight bits and of the
// reassembled P bits.
type ckDigest struct {
	Step       int64  `json:"step"`
	LambdaBits uint64 `json:"lambda_bits"`
	Updates    int    `json:"updates"`
	WeightsXor uint64 `json:"weights_xor"`
	PXor       uint64 `json:"p_xor"`
}

// foldBits rotates h and xors in each value's bits, so the fold depends on
// the order of the values as well as on their bits.
func foldBits(h uint64, vs []float64) uint64 {
	for _, v := range vs {
		h = bits.RotateLeft64(h, 1) ^ math.Float64bits(v)
	}
	return h
}

// checkpointP reassembles the full P blocks a fleet checkpoint carries,
// whichever field holds them.
func checkpointP(t *testing.T, ck *Checkpoint) (blocks []*tensor.Dense, lambda float64, updates int) {
	t.Helper()
	if ck.PCk != nil {
		for _, n := range ck.PCk.Sizes {
			blocks = append(blocks, tensor.New(n, n))
		}
		for _, s := range ck.PCk.Shards {
			n := ck.PCk.Sizes[s.Block]
			copy(blocks[s.Block].Data[s.RowLo*n:s.RowHi*n], s.Rows)
		}
		return blocks, ck.PCk.Lambda, ck.PCk.Updates
	}
	k := ck.Opt.Kalman
	if k == nil {
		t.Fatal("fleet checkpoint holds no covariance")
	}
	for b, p := range k.P {
		blocks = append(blocks, tensor.FromSlice(k.Sizes[b], k.Sizes[b], p))
	}
	return blocks, k.Lambda, k.Updates
}

// fleetDigest digests the fleet's state as its own checkpoint records it.
func fleetDigest(t *testing.T, f *Fleet) (ckDigest, []*tensor.Dense) {
	t.Helper()
	ck, err := f.buildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	blocks, lambda, updates := checkpointP(t, ck)
	d := ckDigest{Step: ck.Steps, LambdaBits: math.Float64bits(lambda), Updates: updates,
		WeightsXor: foldBits(0, f.reps[f.liveIDs()[0]].model.Params.FlattenValues())}
	for _, p := range blocks {
		d.PXor = foldBits(d.PXor, p.Data)
	}
	return d, blocks
}

func readDigest(t *testing.T, path string) ckDigest {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d ckDigest
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// Fleet checkpoints written by an earlier release must keep resuming to
// the same state: testdata holds a replicated fleet and a 3-replica
// sharded fleet with one replica dead, each beside the digest the writing
// release computed.  The resumed fleet must match the digest and then step
// once in lockstep with P symmetric positive-definite.
func TestResumeParentCheckpoint(t *testing.T) {
	for _, name := range []string{"replicated", "pshard"} {
		t.Run(name, func(t *testing.T) {
			ck, err := guard.Load[Checkpoint](filepath.Join("testdata", name+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			want := readDigest(t, filepath.Join("testdata", name+".digest.json"))
			f, err := Resume(ck, Config{BatchSize: 2, Seed: 3, Gate: online.GateConfig{Enabled: false}})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := fleetDigest(t, f); got != want {
				t.Fatalf("resumed digest %+v, want %+v", got, want)
			}
			f.loop.Step()
			if f.Steps() != want.Step+1 {
				t.Fatalf("resumed fleet took no step (last error %q)", f.Stats().LastError)
			}
			if f.WeightDrift() != 0 || f.PDrift() != 0 {
				t.Fatalf("drift %g / %g after the first resumed step, want 0 / 0", f.WeightDrift(), f.PDrift())
			}
			_, blocks := fleetDigest(t, f)
			for bi, p := range blocks {
				if !tensor.CholeskyPD(p) {
					t.Fatalf("P block %d is not symmetric positive-definite", bi)
				}
			}
			f.retireRing()
		})
	}
}
