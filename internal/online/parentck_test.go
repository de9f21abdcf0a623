package online

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"fekf/internal/device"
	"fekf/internal/guard"
	"fekf/internal/tensor"
)

// ckDigest pins what a committed checkpoint resumes to: the step, the
// filter's (λ, updates), and xor-folds of the weight bits and of the P
// bits.
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

// trainerDigest digests the trainer's state as its own checkpoint records
// it, and returns the P blocks.
func trainerDigest(t *testing.T, tr *Trainer) (ckDigest, []*tensor.Dense) {
	t.Helper()
	ck, err := tr.buildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	k := ck.Opt.Kalman
	if k == nil {
		t.Fatal("trainer checkpoint holds no covariance")
	}
	d := ckDigest{Step: ck.Steps, LambdaBits: math.Float64bits(k.Lambda), Updates: k.Updates,
		WeightsXor: foldBits(0, tr.model.Params.FlattenValues())}
	var blocks []*tensor.Dense
	for b, p := range k.P {
		d.PXor = foldBits(d.PXor, p)
		blocks = append(blocks, tensor.FromSlice(k.Sizes[b], k.Sizes[b], p))
	}
	return d, blocks
}

// A trainer checkpoint written by an earlier release must keep resuming to
// the same state: testdata holds one beside the digest the writing release
// computed.  The resumed trainer must match the digest and then step once
// with P symmetric positive-definite.
func TestResumeParentCheckpoint(t *testing.T) {
	ck, err := guard.Load[Checkpoint](filepath.Join("testdata", "trainer.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join("testdata", "trainer.digest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want ckDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	tr, err := ResumeTrainer(ck, device.New("resume", device.A100()),
		TrainerConfig{BatchSize: 2, Seed: 3, Gate: GateConfig{Enabled: false}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := trainerDigest(t, tr); got != want {
		t.Fatalf("resumed digest %+v, want %+v", got, want)
	}
	tr.loop.Step()
	if got := tr.loop.Steps.Load(); got != want.Step+1 {
		t.Fatalf("resumed trainer took no step (last error %q)", tr.Stats().LastError)
	}
	_, blocks := trainerDigest(t, tr)
	for bi, p := range blocks {
		if !tensor.CholeskyPD(p) {
			t.Fatalf("P block %d is not symmetric positive-definite", bi)
		}
	}
}
