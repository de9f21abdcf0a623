package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fekf/internal/deepmd"
	"fekf/internal/guard"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// loadAll runs every shared checkpoint loader over path, for both the
// trainer and the fleet checkpoint type, followed by the covariance and
// replay-stream checks restore applies to what they decoded, and returns
// their errors.
func loadAll(path string) []error {
	ckT, errT := guard.Load[online.Checkpoint](path)
	if errT == nil {
		errT = validateCovariance(ckT.Opt, nil)
	}
	if errT == nil {
		var rc float64
		if rc, errT = modelCutoff(ckT.Model); errT == nil {
			errT = ckT.Replay.Validate(ckT.Species, rc, int(ckT.NumAtoms))
		}
	}
	ckF, errF := guard.Load[Checkpoint](path)
	if errF == nil {
		errF = validateCovariance(ckF.Opt, ckF.PCk)
	}
	if errF == nil {
		var rc float64
		if rc, errF = modelCutoff(ckF.Model); errF == nil {
			errF = ckF.validateReplays(rc)
		}
	}
	return []error{errT, errF}
}

// modelCutoff decodes a checkpoint's model stream for the cutoff that
// bounds its replay frames.
func modelCutoff(model []byte) (float64, error) {
	m, err := deepmd.DecodeModel(bytes.NewReader(model))
	if err != nil {
		return 0, err
	}
	return m.Cfg.Rc, nil
}

// validateCovariance runs the symmetry and shape checks of
// optimize.RestoreKalmanState and Resume on a decoded covariance.
func validateCovariance(opt *optimize.FEKFCheckpoint, pck *optimize.SlabCheckpoint) error {
	if opt != nil && opt.Kalman != nil {
		if err := opt.Kalman.Slabs().Validate(); err != nil {
			return err
		}
	}
	if pck != nil {
		return pck.Validate()
	}
	return nil
}

func loadNewestAll(path string) []error {
	_, _, _, errT := guard.LoadNewest[online.Checkpoint](path, 3)
	_, _, _, errF := guard.LoadNewest[Checkpoint](path, 3)
	return []error{errT, errF}
}

// fuzzSeeds writes one real checkpoint of each kind — trainer, replicated
// fleet, sharded fleet — plus a copy of each with one off-diagonal P
// element flipped and, sharded, one whose slabs overlap, which restore
// must reject, and returns their bytes.  A 4-wide Kalman block keeps P —
// and so each seed — around ten kilobytes, small enough to mutate quickly.
func fuzzSeeds(f testing.TB) [][]byte {
	dir := f.TempDir()
	ds, m, opt := fleetSetup(f)
	opt.KCfg.BlockSize = 4
	opt.InitState(m)
	tr, err := online.NewTrainer(m, opt, ds, online.TrainerConfig{BatchSize: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	trainerPath := filepath.Join(dir, "trainer.gob")
	if err := tr.WriteCheckpoint(trainerPath); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{readSeed(f, trainerPath)}
	ckT, err := guard.Load[online.Checkpoint](trainerPath)
	if err != nil {
		f.Fatal(err)
	}
	ckT.Opt.Kalman.P[0][1] = math.Nextafter(ckT.Opt.Kalman.P[0][1], math.Inf(1))
	seeds = append(seeds, encodeSeed(f, ckT))

	for i, pshard := range []bool{false, true} {
		ds, m, opt = fleetSetup(f)
		opt.KCfg.BlockSize = 4
		fl, err := New(m, opt, ds, Config{Replicas: 2, Seed: 3, PShard: pshard})
		if err != nil {
			f.Fatal(err)
		}
		fleetPath := filepath.Join(dir, fmt.Sprintf("fleet%d.gob", i))
		if err := fl.WriteCheckpoint(fleetPath); err != nil {
			f.Fatal(err)
		}
		ckF, err := guard.Load[Checkpoint](fleetPath)
		if err != nil {
			f.Fatal(err)
		}
		flipPMirror(ckF)
		seeds = append(seeds, readSeed(f, fleetPath), encodeSeed(f, ckF))
		if pshard {
			if ckF, err = guard.Load[Checkpoint](fleetPath); err != nil {
				f.Fatal(err)
			}
			overlapPSlabs(ckF)
			seeds = append(seeds, encodeSeed(f, ckF))
		}
	}
	return seeds
}

func readSeed(f testing.TB, path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func encodeSeed(f testing.TB, ck any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointLoad feeds arbitrary bytes to the shared checkpoint
// loaders, as a plain file and as a ring generation, for both checkpoint
// types: they must never panic.  The same bytes framed as a generation and
// then torn (cut at off) or bit-flipped (at off, past the magic) must be
// rejected with guard.ErrCorrupt — and quarantined by LoadNewest.
func FuzzCheckpointLoad(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		var framed bytes.Buffer
		if err := guard.EncodeFrame(&framed, 1, b); err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint32(len(b)/2), false)
		f.Add(framed.Bytes(), uint32(20), true)
	}
	f.Add([]byte{}, uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, off uint32, torn bool) {
		dir := t.TempDir()
		plain := filepath.Join(dir, "plain.gob")
		if err := os.WriteFile(plain, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loadAll(plain)
		base := filepath.Join(dir, "ckpt.gob")
		ring := guard.NewRing(base, 3)
		if err := os.WriteFile(ring.GenPath(1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		loadNewestAll(base)

		var framed bytes.Buffer
		if err := guard.EncodeFrame(&framed, 2, data); err != nil {
			t.Fatal(err)
		}
		bad := framed.Bytes()
		if torn {
			bad = bad[:int(off)%len(bad)]
		} else {
			bad[8+int(off)%(len(bad)-8)] ^= 0xFF
		}
		if err := os.WriteFile(plain, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, err := range loadAll(plain) {
			if !errors.Is(err, guard.ErrCorrupt) {
				t.Fatalf("damaged frame (torn=%v off=%d): err = %v, want guard.ErrCorrupt", torn, off, err)
			}
		}
		if err := os.WriteFile(ring.GenPath(2), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, seq, quarantined, err := guard.LoadNewest[Checkpoint](base, 3)
		if len(quarantined) == 0 || quarantined[0] != ring.GenPath(2) {
			t.Fatalf("damaged generation not quarantined: seq=%d quarantined=%v err=%v", seq, quarantined, err)
		}
	})
}
