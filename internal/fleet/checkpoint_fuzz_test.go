package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fekf/internal/guard"
	"fekf/internal/online"
)

// loadAll runs every shared checkpoint loader over path, for both the
// trainer and the fleet checkpoint type, and returns their errors.
func loadAll(path string) []error {
	_, errT := guard.Load[online.Checkpoint](path)
	_, errF := guard.Load[Checkpoint](path)
	return []error{errT, errF}
}

func loadNewestAll(path string) []error {
	_, _, _, errT := guard.LoadNewest[online.Checkpoint](path, 3)
	_, _, _, errF := guard.LoadNewest[Checkpoint](path, 3)
	return []error{errT, errF}
}

// fuzzSeeds writes one real trainer checkpoint and one real fleet
// checkpoint and returns their bytes.  A 4-wide Kalman block keeps P — and
// so each seed — around ten kilobytes, small enough to mutate quickly.
func fuzzSeeds(f testing.TB) [][]byte {
	dir := f.TempDir()
	ds, m, opt := fleetSetup(f)
	opt.KCfg.BlockSize = 4
	opt.InitState(m)
	tr, err := online.NewTrainer(m, opt, ds, online.TrainerConfig{BatchSize: 2, MinFrames: 1, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	trainerPath := filepath.Join(dir, "trainer.gob")
	if err := tr.WriteCheckpoint(trainerPath); err != nil {
		f.Fatal(err)
	}
	ds, m, opt = fleetSetup(f)
	opt.KCfg.BlockSize = 4
	fl, err := New(m, opt, ds, Config{Replicas: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	fleetPath := filepath.Join(dir, "fleet.gob")
	if err := fl.WriteCheckpoint(fleetPath); err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, p := range []string{trainerPath, fleetPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
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
