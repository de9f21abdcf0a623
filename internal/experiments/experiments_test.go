package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"fekf/internal/deepmd"
)

func TestQuickSuiteAndTableFormatting(t *testing.T) {
	opts := Quick()
	results, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].System != "Cu" {
		t.Fatalf("results = %+v", results)
	}
	r := results[0]
	if r.Target <= 0 {
		t.Fatalf("target = %v", r.Target)
	}
	if r.Params <= 0 || r.Atoms != 32 {
		t.Fatalf("params=%d atoms=%d", r.Params, r.Atoms)
	}
	for _, rs := range []RunStats{r.AdamBS1, r.AdamBS32, r.AdamBS64, r.RLEKF, r.FEKF, r.FEKFBase} {
		if rs.Epochs < 1 || rs.Iterations < 1 {
			t.Fatalf("run %q did not execute: %+v", rs.Optimizer, rs)
		}
		if rs.TrainE <= 0 || rs.TestE <= 0 {
			t.Fatalf("run %q metrics missing: %+v", rs.Optimizer, rs)
		}
	}

	var buf bytes.Buffer
	Table1(&buf, results)
	if !strings.Contains(buf.String(), "Table 1") || !strings.Contains(buf.String(), "Cu") {
		t.Fatalf("Table1 output:\n%s", buf.String())
	}
	buf.Reset()
	Table4(&buf, results)
	if !strings.Contains(buf.String(), "Generalization gap") {
		t.Fatalf("Table4 output:\n%s", buf.String())
	}
	buf.Reset()
	Figure7a(&buf, results)
	if !strings.Contains(buf.String(), "RLEKF") {
		t.Fatalf("Figure7a output:\n%s", buf.String())
	}

	// round-trip the cache
	path := filepath.Join(t.TempDir(), "res.json")
	if err := SaveResults(path, results); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Target != results[0].Target {
		t.Fatal("cache round trip lost data")
	}
}

func TestTable3PrintsAllSystems(t *testing.T) {
	var buf bytes.Buffer
	Table3(&buf, Defaults())
	for _, name := range []string{"Cu", "Al", "Si", "NaCl", "Mg", "H2O", "CuO", "HfO2"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("Table3 missing %s:\n%s", name, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "72102") {
		t.Fatal("Table3 missing paper snapshot counts")
	}
}

func TestFigure7bcKernelTrend(t *testing.T) {
	opts := Quick()
	var buf bytes.Buffer
	counts, err := Figure7bc(&buf, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 4 {
		t.Fatalf("got %d levels", len(counts))
	}
	// Figure 7(b) trend: kernels decrease monotonically across opt levels
	for i := 1; i < len(counts); i++ {
		if counts[i].TotalPerIter > counts[i-1].TotalPerIter {
			t.Fatalf("kernels increased at %v: %d -> %d",
				counts[i].Level, counts[i-1].TotalPerIter, counts[i].TotalPerIter)
		}
	}
	if counts[3].TotalPerIter >= counts[0].TotalPerIter {
		t.Fatal("opt3 did not reduce kernels vs baseline")
	}
	// Figure 7(c) trend: modeled iteration time improves baseline -> opt3
	if counts[3].TotalModeledNs >= counts[0].TotalModeledNs {
		t.Fatalf("opt3 modeled time %.0f !< baseline %.0f",
			counts[3].TotalModeledNs, counts[0].TotalModeledNs)
	}
	if !strings.Contains(buf.String(), "Figure 7(b)") {
		t.Fatal("missing figure text")
	}
}

func TestFigure4Runs(t *testing.T) {
	opts := Quick()
	var buf bytes.Buffer
	if err := Figure4(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"factor=1", "factor=sqrt(bs)", "factor=bs"} {
		if !strings.Contains(out, col) {
			t.Fatalf("Figure4 missing column %q:\n%s", col, out)
		}
	}
}

func TestMemoryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale P allocation is ~3.5 GB")
	}
	var buf bytes.Buffer
	rows, err := Memory(&buf, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].PeakBytes >= rows[0].PeakBytes {
		t.Fatalf("fused peak %d !< framework peak %d", rows[1].PeakBytes, rows[0].PeakBytes)
	}
	// both share the same resident P
	if rows[0].PBytes != rows[1].PBytes {
		t.Fatal("P bytes differ between variants")
	}
}

func TestCommExperiment(t *testing.T) {
	opts := Quick()
	var buf bytes.Buffer
	if err := Comm(&buf, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gradient memory") {
		t.Fatalf("Comm output:\n%s", buf.String())
	}
}

func TestTable5Quick(t *testing.T) {
	opts := Quick()
	opts.FEKFMaxEpochs = 1
	opts.RLEKFMaxEpochs = 1
	opts.AdamBS1MaxEpochs = 2
	var buf bytes.Buffer
	rows, err := Table5(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "RLEKF" || rows[3].GPUs != 16 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows[1:] {
		if r.ModeledSec <= 0 {
			t.Fatalf("modeled time missing: %+v", r)
		}
	}
	// more GPUs at larger batch must communicate more bytes in total
	if !(rows[3].WireMB > rows[2].WireMB && rows[2].WireMB > rows[1].WireMB) {
		t.Fatalf("wire volumes not increasing: %+v", rows)
	}
}

func TestMarkersAndHelpers(t *testing.T) {
	if markEpochs(RunStats{Converged: false, Epochs: 7}) != "-" {
		t.Fatal("unconverged run must print '-'")
	}
	if markEpochs(RunStats{Converged: true, Epochs: 7}) != "7" {
		t.Fatal("epochs formatting")
	}
	if ratio(RunStats{Converged: true, Epochs: 10}, RunStats{Converged: true, Epochs: 5}) != "2.0x" {
		t.Fatal("ratio formatting")
	}
	if ratio(RunStats{Converged: false}, RunStats{Converged: true, Epochs: 5}) != "-" {
		t.Fatal("ratio with non-convergence")
	}
	_ = deepmd.OptAll
}

func TestLargeBatchAblation(t *testing.T) {
	opts := Quick()
	opts.FEKFMaxEpochs = 2
	var buf bytes.Buffer
	if err := LargeBatch(&buf, opts); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Adam", "LARS", "LAMB", "FEKF"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("largebatch missing %s:\n%s", name, buf.String())
		}
	}
}

func TestLambdaNuRuns(t *testing.T) {
	opts := Quick()
	opts.FEKFMaxEpochs = 2
	var buf bytes.Buffer
	if err := LambdaNu(&buf, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.996") || !strings.Contains(buf.String(), "0.9987") {
		t.Fatalf("lambdanu output:\n%s", buf.String())
	}
}
