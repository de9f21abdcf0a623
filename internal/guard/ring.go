package guard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNoCheckpoint is returned by LoadNewest when no generation file holds
// a valid frame (and no legacy fallback applies).
var ErrNoCheckpoint = errors.New("guard: no valid checkpoint generation")

// Ring is a retention ring of framed checkpoint generations around a base
// path: `dir/ckpt.gob` spawns `dir/ckpt.000001.gob`, `dir/ckpt.000002.gob`
// … with the sequence number embedded both in the name and the frame
// header.  Writes are crash-safe (temp file, fsync, rename, directory
// fsync) and prune generations beyond the retention count; loads walk the
// generations newest-first, quarantining any file whose frame fails
// validation by renaming it aside with a ".corrupt" suffix.
type Ring struct {
	path string // base checkpoint path; generations insert .NNNNNN before its extension
	keep int

	mu      sync.Mutex
	next    uint64 // next sequence to write (0 = not yet scanned)
	scanned bool
}

// NewRing builds a ring around a base checkpoint path, retaining the last
// keep generations (minimum 1).
func NewRing(path string, keep int) *Ring {
	if keep < 1 {
		keep = 1
	}
	return &Ring{path: path, keep: keep}
}

// Path returns the base checkpoint path the ring was built around.
func (r *Ring) Path() string { return r.path }

// splitPath returns the base path split around the extension, so
// generation numbers land before ".gob" (ckpt.000017.gob, not
// ckpt.gob.000017).
func (r *Ring) splitPath() (stem, ext string) {
	ext = filepath.Ext(r.path)
	return strings.TrimSuffix(r.path, ext), ext
}

// GenPath returns the file path of generation seq.
func (r *Ring) GenPath(seq uint64) string {
	stem, ext := r.splitPath()
	return fmt.Sprintf("%s.%06d%s", stem, seq, ext)
}

// Gen locates one on-disk generation.
type Gen struct {
	Seq  uint64
	Path string
	Mod  time.Time
}

// Generations lists the on-disk generation files, oldest first.  Files
// that merely match the naming pattern are listed without validation.
func (r *Ring) Generations() ([]Gen, error) {
	stem, ext := r.splitPath()
	dir := filepath.Dir(r.path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	prefix := filepath.Base(stem) + "."
	var gens []Gen
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext)
		if len(mid) < 6 {
			continue
		}
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		gens = append(gens, Gen{Seq: seq, Path: filepath.Join(dir, name), Mod: info.ModTime()})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq < gens[j].Seq })
	return gens, nil
}

// Write persists one gob payload as the next generation: framed with its
// sequence number and CRC32-C, written crash-safely, parent directory
// fsynced, older generations beyond the retention count removed.  It
// returns the sequence number written.
func (r *Ring) Write(payload []byte) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.scanned {
		gens, err := r.Generations()
		if err != nil {
			return 0, err
		}
		if len(gens) > 0 {
			r.next = gens[len(gens)-1].Seq
		}
		r.scanned = true
	}
	seq := r.next + 1
	path := r.GenPath(seq)
	var buf bytes.Buffer
	buf.Grow(frameHeaderLen + len(payload))
	if err := EncodeFrame(&buf, seq, payload); err != nil {
		return 0, err
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return 0, err
	}
	r.next = seq
	// Retention: everything keep generations behind the one just written
	// goes; a prune failure is not a write failure (the ring just holds
	// one extra file until the next write retries).
	if gens, err := r.Generations(); err == nil {
		for _, g := range gens {
			if g.Seq+uint64(r.keep) <= seq {
				os.Remove(g.Path)
			}
		}
	}
	SyncDir(filepath.Dir(path))
	return seq, nil
}

// LoadNewest walks the generations newest-first and returns the first
// valid frame.  Invalid files (torn, bit-flipped, or not framed at all)
// are quarantined — renamed aside with a ".corrupt" suffix — and their
// original paths returned, so the caller can count and log them.  With no
// valid generation it returns ErrNoCheckpoint.
func (r *Ring) LoadNewest() (seq uint64, payload []byte, quarantined []string, err error) {
	gens, err := r.Generations()
	if err != nil {
		return 0, nil, nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		b, err := os.ReadFile(g.Path)
		if err != nil {
			quarantined = append(quarantined, g.Path)
			quarantine(g.Path)
			continue
		}
		seq, payload, err := DecodeFrame(bytes.NewReader(b))
		if err != nil || seq != g.Seq {
			quarantined = append(quarantined, g.Path)
			quarantine(g.Path)
			continue
		}
		return seq, payload, quarantined, nil
	}
	return 0, nil, quarantined, ErrNoCheckpoint
}

// quarantine moves a failed generation aside so the retention scan never
// considers it again but an operator can still inspect it.
func quarantine(path string) {
	os.Rename(path, path+".corrupt")
}

// writeFileAtomic writes b to path through a temp file, fsync and rename.
func writeFileAtomic(path string, b []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SyncDir fsyncs a directory so a rename into it survives power loss.
// Best-effort: filesystems that cannot fsync directories are ignored.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
