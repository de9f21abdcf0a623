package guard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Keeper is the self-healing state one training loop owns: the checkpoint
// retention ring (nil in legacy single-file mode), the post-step sentinel
// (nil when disabled) and the health ledger stats expose.  The online
// trainer and the fleet conductor each build one; everything but Health
// belongs to the loop goroutine.
type Keeper struct {
	ring     *Ring
	sentinel *Sentinel
	now      func() time.Time
	// Health is the divergence/rollback/watchdog ledger; safe from any
	// goroutine.
	Health *Health
}

// NewKeeper builds the keeper for a loop checkpointing to path: keep > 0
// (with a path) turns path into a retention ring of keep generations, an
// enabled cfg arms the sentinel, and now stamps checkpoint ages.
func NewKeeper(path string, keep int, cfg SentinelConfig, now func() time.Time) *Keeper {
	k := &Keeper{now: now, Health: NewHealth(0)}
	if path != "" && keep > 0 {
		k.ring = NewRing(path, keep)
	}
	if cfg.Enabled {
		k.sentinel = &Sentinel{}
	}
	return k
}

// Armed reports whether a ring or a sentinel is configured — whether the
// health ledger has anything to report.
func (k *Keeper) Armed() bool { return k.ring != nil || k.sentinel != nil }

// Check runs the sentinel over the post-step state of step n, returning the
// divergence event if an invariant broke.  sample is only called when a
// sentinel is armed, so an unguarded loop pays nothing for the views.
func (k *Keeper) Check(n int64, sample func() Sample) *DivergenceEvent {
	if k.sentinel == nil {
		return nil
	}
	if ev := k.sentinel.Check(n, sample()); ev != nil {
		return ev
	}
	k.Health.NoteHealthy()
	return nil
}

// Save gob-encodes v and persists it crash-safely: as the next ring
// generation when path is the ring's base path, as an atomically replaced
// plain file (temp file, fsync, rename, directory fsync) otherwise.
func (k *Keeper) Save(path string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("guard: encode checkpoint %s: %w", path, err)
	}
	if k.ring != nil && path == k.ring.Path() {
		seq, err := k.ring.Write(buf.Bytes())
		if err != nil {
			return err
		}
		k.Health.NoteCheckpoint(seq, k.now())
		return nil
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return err
	}
	// The rename is durable only once the directory entry is.
	return SyncDir(filepath.Dir(path))
}

// Rollback records the divergence ev and restores the newest valid ring
// generation: quarantined generations are counted, the payload is decoded
// into a T and handed to apply — which restores it in place and returns
// the training step it rewound to — and the sentinel baseline and the
// ledger are reset to the restored generation.  A failed rollback (no
// ring, no valid generation, a failed apply) returns an error wrapping the
// cause; the caller keeps running from the diverged state.
func Rollback[T any](k *Keeper, ev *DivergenceEvent, apply func(*T) (int64, error)) error {
	k.Health.NoteDivergence(ev)
	if err := rollback(k, apply); err != nil {
		return fmt.Errorf("guard: rollback after %v: %w", ev, err)
	}
	return nil
}

func rollback[T any](k *Keeper, apply func(*T) (int64, error)) error {
	if k.ring == nil {
		return fmt.Errorf("guard: no checkpoint ring to roll back to (set CheckpointKeep)")
	}
	ck, seq, quarantined, err := newest[T](k.ring)
	k.Health.NoteQuarantine(len(quarantined))
	if err != nil {
		return err
	}
	step, err := apply(ck)
	if err != nil {
		return err
	}
	if k.sentinel != nil {
		k.sentinel.Reset()
	}
	k.Health.NoteRollback(seq, step)
	k.Health.NoteCheckpoint(seq, k.now())
	return nil
}

// Load reads a checkpoint file into a T — either a legacy plain gob file
// or a checksummed ring generation (see EncodeFrame).  A framed file that
// is torn or bit-flipped fails with an error wrapping ErrCorrupt rather
// than an opaque gob decode error.
func Load[T any](path string) (*T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload := b
	if _, p, err := DecodeFrame(bytes.NewReader(b)); err == nil {
		payload = p
	} else if !errors.Is(err, ErrNotFramed) {
		return nil, fmt.Errorf("guard: checkpoint %s: %w", path, err)
	}
	ck, err := decode[T](payload)
	if err != nil {
		return nil, fmt.Errorf("guard: decode checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// LoadNewest resolves the newest valid generation of the checkpoint ring
// around path into a T: corrupt or torn generation files are quarantined
// (their pre-quarantine paths are returned) and the next older generation
// is tried; with no generation files at all it falls back to a legacy
// single-file checkpoint at path itself.  The returned sequence number is
// 0 for the legacy fallback.
func LoadNewest[T any](path string, keep int) (*T, uint64, []string, error) {
	ck, seq, quarantined, err := newest[T](NewRing(path, keep))
	if errors.Is(err, ErrNoCheckpoint) {
		if _, statErr := os.Stat(path); statErr == nil {
			ck, err := Load[T](path)
			return ck, 0, quarantined, err
		}
	}
	return ck, seq, quarantined, err
}

// newest loads and decodes the newest valid generation of r.
func newest[T any](r *Ring) (*T, uint64, []string, error) {
	seq, payload, quarantined, err := r.LoadNewest()
	if err != nil {
		return nil, 0, quarantined, err
	}
	ck, err := decode[T](payload)
	if err != nil {
		return nil, 0, quarantined, fmt.Errorf("guard: decode checkpoint generation %d: %w", seq, err)
	}
	return ck, seq, quarantined, nil
}

func decode[T any](payload []byte) (*T, error) {
	ck := new(T)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, err
	}
	return ck, nil
}
