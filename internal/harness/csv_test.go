package harness

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"ecsort/internal/dist"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	records, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid csv: %v", err)
	}
	return records
}

func TestWriteFig5CSV(t *testing.T) {
	panel, err := RunFig5Panel("uniform", 200, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig5CSV(&buf, panel); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if records[0][0] != "distribution" || len(records[0]) != 4 {
		t.Fatalf("header = %v", records[0])
	}
	// 3 series × 20 sizes × 2 trials data rows.
	if want := 1 + 3*20*2; len(records) != want {
		t.Fatalf("rows = %d, want %d", len(records), want)
	}
	// Every comparisons field parses as a positive integer.
	for _, rec := range records[1:] {
		c, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil || c <= 0 {
			t.Fatalf("bad comparisons field %q", rec[3])
		}
	}
}

func TestWriteLBCSV(t *testing.T) {
	series, err := RunAdversaryEqual(48, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLBCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 3 || records[1][0] != "equal-size" {
		t.Fatalf("records = %v", records)
	}
}

func TestWriteZetaExponentCSV(t *testing.T) {
	sweep := []ZetaExponentPoint{{S: 1.5, Exponent: 1.31}, {S: 2.5, Exponent: 1.05}}
	var buf bytes.Buffer
	if err := WriteZetaExponentCSV(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 3 || records[1][0] != "1.500" {
		t.Fatalf("records = %v", records)
	}
}

func TestZetaExponentSweepShape(t *testing.T) {
	sweep, err := RunZetaExponentSweep(
		[]float64{1.1, 2.5},
		[]int{300, 600, 1200, 2400},
		2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Fatalf("sweep = %v", sweep)
	}
	// The s=1.1 exponent must be clearly larger than the s=2.5 one.
	if sweep[0].Exponent < sweep[1].Exponent+0.2 {
		t.Errorf("exponents not separated: s=1.1 → %.3f, s=2.5 → %.3f",
			sweep[0].Exponent, sweep[1].Exponent)
	}
}

func TestRenderZetaExponents(t *testing.T) {
	var buf bytes.Buffer
	err := RenderZetaExponents(&buf, []ZetaExponentPoint{
		{S: 1.5, Exponent: 1.33}, {S: 2.5, Exponent: 1.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "open problem") || !strings.Contains(out, "Thm 9") {
		t.Fatalf("render output missing markers:\n%s", out)
	}
}

func TestFig5CSVMatchesSeriesData(t *testing.T) {
	series, err := RunFig5Series(dist.NewUniform(5), Fig5Config{
		Sizes: []int{100, 200}, Trials: 2, Seed: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	panel := Fig5Panel{Family: "uniform", Series: []Fig5Series{series}}
	var buf bytes.Buffer
	if err := WriteFig5CSV(&buf, panel); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	// Row 1 must match Points[0].Comparisons[0].
	if got := records[1][3]; got != strconv.FormatInt(series.Points[0].Comparisons[0], 10) {
		t.Fatalf("first record %v does not match series %v", records[1], series.Points[0])
	}
}
