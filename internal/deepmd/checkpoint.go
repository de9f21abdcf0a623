package deepmd

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fekf/internal/tensor"
)

// checkpoint is the on-disk form of a model: the configuration, the
// environment normalization, and every parameter tensor in registration
// order.
type checkpoint struct {
	Cfg    Config
	SNorm  []float64
	Level  OptLevel
	Shapes [][2]int
	Values [][]float64
}

// EncodeTo writes the model weights and configuration to w (gob encoding);
// the stream is what Save persists and what the online trainer embeds in
// its combined checkpoints.
func (m *Model) EncodeTo(w io.Writer) error {
	ck := checkpoint{
		Cfg:   m.Cfg,
		SNorm: append([]float64(nil), m.SNorm...),
		Level: m.Level,
	}
	for _, t := range m.Params.Tensors() {
		ck.Shapes = append(ck.Shapes, [2]int{t.Rows, t.Cols})
		ck.Values = append(ck.Values, append([]float64(nil), t.Data...))
	}
	if err := gob.NewEncoder(w).Encode(&ck); err != nil {
		return fmt.Errorf("deepmd: encode checkpoint: %w", err)
	}
	return nil
}

// DecodeModel reads a model checkpoint stream written by EncodeTo and
// reconstructs the model (on the default device; set Dev afterwards for
// placement).  The stream is validated structurally — tensor count, shape
// list length, per-tensor shapes and normalization length must all match
// the model the stored configuration builds — so a truncated or corrupted
// checkpoint fails loudly instead of yielding a silently mangled model.
// The config may not imply more parameters than the stream carries, so
// the allocation stays proportional to the input.
func DecodeModel(r io.Reader) (*Model, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("deepmd: decode checkpoint: %w", err)
	}
	if len(ck.Shapes) != len(ck.Values) {
		return nil, fmt.Errorf("deepmd: checkpoint has %d shapes for %d value tensors", len(ck.Shapes), len(ck.Values))
	}
	if err := ck.Cfg.Validate(); err != nil {
		return nil, err
	}
	carried := 0
	for _, v := range ck.Values {
		carried += len(v)
	}
	if want, ok := ck.Cfg.numParams(); !ok || want > carried {
		return nil, fmt.Errorf("deepmd: checkpoint config implies more parameters than its tensors' %d values", carried)
	}
	m, err := NewModel(ck.Cfg)
	if err != nil {
		return nil, err
	}
	ts := m.Params.Tensors()
	if len(ts) != len(ck.Values) {
		return nil, fmt.Errorf("deepmd: checkpoint has %d tensors, model %d", len(ck.Values), len(ts))
	}
	if len(ck.SNorm) != len(m.SNorm) {
		return nil, fmt.Errorf("deepmd: checkpoint has %d normalization entries, model %d", len(ck.SNorm), len(m.SNorm))
	}
	for i, t := range ts {
		if t.Rows != ck.Shapes[i][0] || t.Cols != ck.Shapes[i][1] {
			return nil, fmt.Errorf("deepmd: checkpoint tensor %d is %dx%d, model wants %dx%d",
				i, ck.Shapes[i][0], ck.Shapes[i][1], t.Rows, t.Cols)
		}
		if len(ck.Values[i]) != t.Len() {
			return nil, fmt.Errorf("deepmd: checkpoint tensor %d holds %d values, want %d",
				i, len(ck.Values[i]), t.Len())
		}
		t.CopyFrom(tensor.FromSlice(t.Rows, t.Cols, ck.Values[i]))
	}
	copy(m.SNorm, ck.SNorm)
	m.Level = ck.Level
	return m, nil
}

// Save writes the model checkpoint to path crash-safely: the stream goes
// to a temporary file in the target directory, is fsynced, and is then
// atomically renamed over path, so a crash mid-write can never leave a
// truncated checkpoint under the final name.
func (m *Model) Save(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := m.EncodeTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("deepmd: write checkpoint %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("deepmd: sync checkpoint %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("deepmd: close checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads a model checkpoint written by Save.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := DecodeModel(f)
	if err != nil {
		return nil, fmt.Errorf("deepmd: %s: %w", path, err)
	}
	return m, nil
}
