package optimize

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fekf/internal/device"
	"fekf/internal/tensor"
)

// ledgerCase is one kernel configuration of TestStepDeviceLedger with the
// ledger of one FEKF step, pinned as constants: per "kernel/phase" the
// launch count and the summed modeled duration (µs), then the device
// totals.
type ledgerCase struct {
	name     string
	cfg      KalmanConfig
	launches map[string]string
	totals   string
}

// TestStepDeviceLedger pins what one FEKF step on a multi-block model
// charges the simulated device: every launch by name, phase and modeled
// duration, plus the peak and live bytes.  The launches are compared as a
// multiset — the blocks' launches interleave differently at different
// worker counts — and the step runs serially on one worker so the peak is
// deterministic.  The constants are the whole-block ledger of the paper's
// cost model; a change to what a step charges must update them on purpose.
func TestStepDeviceLedger(t *testing.T) {
	cases := []ledgerCase{
		{
			name: "opt3",
			cfg:  DefaultKalmanConfig().WithOpt3(),
			launches: map[string]string{
				"a_scalar/optimizer":       "20 80.11102222222222",
				"add/forward":              "5 21.47456",
				"add/gradient":             "130 549.4510933333332",
				"affine/forward":           "2 8.038986666666666",
				"affine_tanh/forward":      "4 16.52849777777778",
				"block_repeat/forward":     "1 4.001173333333333",
				"block_repeat/gradient":    "1 4.001173333333333",
				"block_sum/forward":        "2 8.002346666666666",
				"bmatmul/forward":          "1 4.309475555555556",
				"bmatmul/gradient":         "18 75.60448000000001",
				"bmatmul_ta/forward":       "4 16.80099555555556",
				"bmatmul_ta/gradient":      "16 67.20398222222224",
				"bmatmul_tb/forward":       "1 4.309475555555556",
				"bmatmul_tb/gradient":      "18 75.60448000000001",
				"colsum/forward":           "7 28.60253333333333",
				"colsum/gradient":          "31 127.00807999999999",
				"gather_rows/forward":      "3 12.14791111111111",
				"gather_rows/gradient":     "5 20.293546666666668",
				"k_scale/optimizer":        "20 80.11102222222222",
				"matmul/gradient":          "28 116.36081777777783",
				"matmul_ta/forward":        "7 29.090204444444446",
				"matmul_ta/gradient":       "59 245.7339022222223",
				"matmul_tb/forward":        "7 29.090204444444446",
				"matmul_tb/gradient":       "31 129.3730844444445",
				"mul/gradient":             "48 206.41791999999995",
				"p_matvec/optimizer":       "20 100.18706666666668",
				"p_update_fused/optimizer": "20 120.37413333333336",
				"pad_cols/forward":         "1 4.113777777777777",
				"pad_cols/gradient":        "10 40.84195555555555",
				"prod_force/forward":       "1 4.094435555555556",
				"prod_force_grad/gradient": "4 16.377742222222224",
				"res_affine_tanh/forward":  "8 33.61422222222223",
				"scale/forward":            "3 12.218453333333333",
				"scale/gradient":           "49 204.66531555555542",
				"scatter_rows/forward":     "3 12.077368888888888",
				"scatter_rows/gradient":    "5 20.36408888888889",
				"slice_cols/forward":       "4 16.33678222222222",
				"slice_cols/gradient":      "8 32.67356444444444",
				"sub/forward":              "4 17.20149333333333",
				"sub/gradient":             "20 86.00746666666664",
				"sym_op_bwd/forward":       "1 4.127431111111111",
				"tanh_bwd/forward":         "6 25.80224",
				"tanh_bwd/gradient":        "54 232.22015999999996",
				"w_increment/optimizer":    "20 80.11102222222222",
			},
			totals: "kernels 710 flops 44399629 bytes 164771720 modeled_ns 3.023079345e+06 peak 36876608 live 3653656",
		},
		{
			name: "framework",
			cfg:  DefaultKalmanConfig(),
			launches: map[string]string{
				"a_scalar/optimizer":       "20 80.11102222222222",
				"add/forward":              "5 21.47456",
				"add/gradient":             "130 549.4510933333332",
				"affine/forward":           "2 8.038986666666666",
				"affine_tanh/forward":      "4 16.52849777777778",
				"block_repeat/forward":     "1 4.001173333333333",
				"block_repeat/gradient":    "1 4.001173333333333",
				"block_sum/forward":        "2 8.002346666666666",
				"bmatmul/forward":          "1 4.309475555555556",
				"bmatmul/gradient":         "18 75.60448000000001",
				"bmatmul_ta/forward":       "4 16.80099555555556",
				"bmatmul_ta/gradient":      "16 67.20398222222224",
				"bmatmul_tb/forward":       "1 4.309475555555556",
				"bmatmul_tb/gradient":      "18 75.60448000000001",
				"colsum/forward":           "7 28.60253333333333",
				"colsum/gradient":          "31 127.00807999999999",
				"gather_rows/forward":      "3 12.14791111111111",
				"gather_rows/gradient":     "5 20.293546666666668",
				"k_scale/optimizer":        "20 80.11102222222222",
				"matmul/gradient":          "28 116.36081777777783",
				"matmul_ta/forward":        "7 29.090204444444446",
				"matmul_ta/gradient":       "59 245.7339022222223",
				"matmul_tb/forward":        "7 29.090204444444446",
				"matmul_tb/gradient":       "31 129.3730844444445",
				"mul/gradient":             "48 206.41791999999995",
				"outer_kk/optimizer":       "20 100.18706666666668",
				"p_matvec/optimizer":       "40 200.37413333333333",
				"p_sub_scale/optimizer":    "20 140.56120000000004",
				"p_symmetrize/optimizer":   "20 140.56120000000004",
				"p_transpose/optimizer":    "20 120.37413333333336",
				"pad_cols/forward":         "1 4.113777777777777",
				"pad_cols/gradient":        "10 40.84195555555555",
				"prod_force/forward":       "1 4.094435555555556",
				"prod_force_grad/gradient": "4 16.377742222222224",
				"res_affine_tanh/forward":  "8 33.61422222222223",
				"scale/forward":            "3 12.218453333333333",
				"scale/gradient":           "49 204.66531555555542",
				"scatter_rows/forward":     "3 12.077368888888888",
				"scatter_rows/gradient":    "5 20.36408888888889",
				"slice_cols/forward":       "4 16.33678222222222",
				"slice_cols/gradient":      "8 32.67356444444444",
				"sub/forward":              "4 17.20149333333333",
				"sub/gradient":             "20 86.00746666666664",
				"sym_op_bwd/forward":       "1 4.127431111111111",
				"tanh_bwd/forward":         "6 25.80224",
				"tanh_bwd/gradient":        "54 232.22015999999996",
				"w_increment/optimizer":    "20 80.11102222222222",
			},
			totals: "kernels 790 flops 51212764 bytes 310118600 modeled_ns 3.504575835e+06 peak 41070912 live 3653656",
		},
	}
	ds, base := pipelineModelSetup(t)
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	for _, c := range cases {
		dev := device.New("ledger", device.A100())
		m := base.CloneFor(dev)
		f := NewFEKF()
		f.KCfg = c.cfg
		f.KCfg.BlockSize = 512
		f.Pipeline = false
		tr := dev.StartTrace()
		if _, err := f.Step(m, ds, []int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		dev.StopTrace()
		if nb := len(f.State().Blocks); nb < 2 {
			t.Fatalf("%s: want a multi-block model, got %d blocks", c.name, nb)
		}
		launches := traceLedger(t, tr)
		ct := dev.Counters()
		totals := fmt.Sprintf("kernels %d flops %d bytes %d modeled_ns %v peak %d live %d",
			ct.Kernels, ct.Flops, ct.Bytes, ct.ModeledNs, ct.PeakBytes, ct.LiveBytes)
		if !maps.Equal(launches, c.launches) || totals != c.totals {
			t.Errorf("%s: device ledger changed\n%s", c.name, formatLedger(launches, totals))
		}
	}
}

// traceLedger reads a tracer's events back and aggregates them per
// "name/phase": launch count and the sum of their modeled durations, added
// in sorted order so the sum does not depend on launch order.
func traceLedger(t *testing.T, tr *device.Tracer) map[string]string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	durs := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		key := ev.Name + "/" + ev.Cat
		durs[key] = append(durs[key], ev.Dur)
	}
	out := map[string]string{}
	for key, ds := range durs {
		sort.Float64s(ds)
		sum := 0.0
		for _, d := range ds {
			sum += d
		}
		out[key] = fmt.Sprintf("%d %v", len(ds), sum)
	}
	return out
}

// formatLedger prints a ledger as the Go literal the test case holds.
func formatLedger(launches map[string]string, totals string) string {
	keys := make([]string, 0, len(launches))
	for k := range launches {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("launches: map[string]string{\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", k, launches[k])
	}
	fmt.Fprintf(&b, "},\ntotals: %q,\n", totals)
	return b.String()
}

// TestFrameworkDrainHoldsNoSquareTemporary: the framework-style drain
// charges the device for its K·Kᵀ and Pᵀ temporaries, but the host walks
// P row by row and must not allocate an n×n buffer for them.
func TestFrameworkDrainHoldsNoSquareTemporary(t *testing.T) {
	const n = 512
	ks := NewKalmanState(DefaultKalmanConfig(), []int{n}, device.New("tmp", device.A100()))
	rng := rand.New(rand.NewSource(5))
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	_, drain := ks.UpdateSplit(g, 0.3, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drain()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n*n*8 {
		t.Fatalf("one framework drain of a %d-wide block allocated %d host bytes, an n×n buffer is %d", n, got, n*n*8)
	}
}
