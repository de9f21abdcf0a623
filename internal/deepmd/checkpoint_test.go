package deepmd

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fekf/internal/md"
)

// Save must be crash-safe: after a successful write the directory holds
// exactly the checkpoint (no stray temp files), and the stored weights are
// bitwise identical to the in-memory model.
func TestSaveAtomicAndBitwise(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m := testModel(t, ds, OptAll)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	for i := 0; i < 2; i++ { // second Save overwrites atomically
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.ckpt" {
		t.Fatalf("directory not clean after Save: %v", entries)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w1 := m.Params.FlattenValues()
	w2 := got.Params.FlattenValues()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d not bitwise preserved: %v vs %v", i, w1[i], w2[i])
		}
	}
	for i := range m.SNorm {
		if got.SNorm[i] != m.SNorm[i] {
			t.Fatalf("SNorm %d not preserved", i)
		}
	}
}

// A truncated stream — the crash Save guards against, simulated directly —
// must fail to decode rather than yield a mangled model.
func TestDecodeTruncatedStream(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m := testModel(t, ds, OptAll)
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, buf.Len() / 2, buf.Len() - 1} {
		if _, err := DecodeModel(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
}

// Structural validation: shape-list, tensor-count and SNorm-length
// mismatches in the stored stream must all be rejected with a clear error.
func TestDecodeValidatesStructure(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m := testModel(t, ds, OptAll)

	encode := func(mutate func(*checkpoint)) []byte { return mutatedStream(t, m, mutate) }

	cases := []struct {
		name   string
		mutate func(*checkpoint)
		want   string
	}{
		{"shape-count", func(ck *checkpoint) { ck.Shapes = ck.Shapes[:len(ck.Shapes)-1] }, "shapes"},
		{"tensor-count", func(ck *checkpoint) { ck.Shapes = ck.Shapes[:1]; ck.Values = ck.Values[:1] }, "tensors"},
		{"snorm-length", func(ck *checkpoint) { ck.SNorm = ck.SNorm[:len(ck.SNorm)-1] }, "normalization"},
		{"tensor-shape", func(ck *checkpoint) { ck.Shapes[0][0]++; ck.Values[0] = append(ck.Values[0], 0) }, "x"},
		{"value-count", func(ck *checkpoint) { ck.Values[0] = ck.Values[0][:len(ck.Values[0])-1] }, "values"},
		// The slot count does not enter the parameter count, so only the
		// config's own bound stops it before BuildEnv sizes R from it.
		{"slot-count", hugeSlotCount, "slot count"},
		// Without a ceiling, a cutoff sets BuildEnv's neighbor work (Rc³).
		{"cutoff-nan", nanCutoff, "cutoff"},
		{"cutoff-inf", infCutoff, "cutoff"},
		{"cutoff-40", wideCutoff, "cutoff"},
	}
	for _, tc := range cases {
		got, err := DecodeModel(bytes.NewReader(encode(tc.mutate)))
		if err == nil {
			// Build an environment from the accepted config, as the first
			// step, admit or predict after a resume does.
			_, _ = BuildEnv(got.Cfg, []*md.System{SnapshotSystem(ds, &ds.Snapshots[0])})
			t.Fatalf("%s: corrupt checkpoint decoded without error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// mutatedStream encodes m, applies mutate to the decoded checkpoint record
// and re-encodes it: a stream as real as m's with one field forged.
func mutatedStream(tb testing.TB, m *Model, mutate func(*checkpoint)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		tb.Fatal(err)
	}
	var ck checkpoint
	if err := gob.NewDecoder(&buf).Decode(&ck); err != nil {
		tb.Fatal(err)
	}
	mutate(&ck)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&ck); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// hugeSlotCount forges a per-species slot count far past
// MaxSlotsPerSpecies; unchecked, BuildEnv's R allocation panics on it.
func hugeSlotCount(ck *checkpoint) {
	ck.Cfg.MaxNeighbors = []int{1 << 50}
}

// nanCutoff forges a NaN cutoff, which no ordered comparison rejects.
func nanCutoff(ck *checkpoint) { ck.Cfg.Rc = math.NaN() }

// infCutoff forges an infinite cutoff.
func infCutoff(ck *checkpoint) { ck.Cfg.Rc = math.Inf(1) }

// wideCutoff forges a 40 Å cutoff: one tiny-Cu BuildEnv on it takes
// seconds and hundreds of MB.
func wideCutoff(ck *checkpoint) { ck.Cfg.Rc = 40 }

// A crafted stream must be rejected before its config sizes the model:
// DecodeModel checks the parameter count the config implies against the
// values the stream carries, with arithmetic that cannot overflow.
func TestDecodeRejectsOversizedConfig(t *testing.T) {
	ds := testData(t, "Cu", 2)
	base := testModel(t, ds, OptAll).Cfg
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"embedding-width", func(c *Config) { c.M, c.MSub = 1<<50, 1 }},
		{"fitting-width", func(c *Config) { c.FitHidden = 1 << 50 }},
	} {
		cfg := base
		tc.mutate(&cfg)
		var buf bytes.Buffer
		ck := checkpoint{Cfg: cfg, SNorm: make([]float64, cfg.NumSpecies)}
		if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeModel(&buf)
		if err == nil || !strings.Contains(err.Error(), "implies more parameters") {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
	}
}

// FuzzDecodeModel feeds mutated model streams to the loader that resume
// and fleet catch-up read: it must never panic or allocate beyond the
// input's size, and whatever it accepts must re-encode to the same model.
func FuzzDecodeModel(f *testing.F) {
	ds := testData(f, "Cu", 2)
	var buf bytes.Buffer
	if err := testModel(f, ds, OptAll).EncodeTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, forge := range []func(*checkpoint){hugeSlotCount, nanCutoff, infCutoff, wideCutoff} {
		f.Add(mutatedStream(f, testModel(f, ds, OptAll), forge))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := m.EncodeTo(&again); err != nil {
			t.Fatal(err)
		}
		m2, err := DecodeModel(&again)
		if err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
		w, w2 := m.Params.FlattenValues(), m2.Params.FlattenValues()
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(w2[i]) {
				t.Fatalf("weight %d changed across re-encode", i)
			}
		}
	})
}

// Clone must produce an isolated copy: mutating the original afterwards
// must not change the clone (the copy-on-write snapshot contract).
func TestCloneIsolatesWeights(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m := testModel(t, ds, OptAll)
	c := m.Clone()
	if c == m || c.Params == m.Params {
		t.Fatal("Clone shares structure with the original")
	}
	before := c.Params.FlattenValues()
	for _, tt := range m.Params.Tensors() {
		for i := range tt.Data {
			tt.Data[i] += 1.0
		}
	}
	after := c.Params.FlattenValues()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("clone weight %d changed when original was mutated", i)
		}
	}
}
