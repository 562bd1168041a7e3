package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV writers for every experiment artifact, so results can be plotted
// with any external tool. One row per observation; headers match the
// field names used in the rendered tables.

// WriteFig5CSV writes a Figure 5 panel as rows of
// (distribution, n, trial, comparisons).
func WriteFig5CSV(w io.Writer, panel Fig5Panel) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"distribution", "n", "trial", "comparisons"}); err != nil {
		return err
	}
	for _, series := range panel.Series {
		for _, p := range series.Points {
			for trial, c := range p.Comparisons {
				rec := []string{
					series.Distribution,
					strconv.Itoa(p.N),
					strconv.Itoa(trial),
					strconv.FormatInt(c, 10),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLBCSV writes a lower-bound sweep as rows of
// (kind, n, param, comparisons, normalized_new, normalized_old).
func WriteLBCSV(w io.Writer, series LBSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "n", "param", "comparisons", "c_param_over_n2", "c_param2_over_n2"}); err != nil {
		return err
	}
	for _, p := range series.Points {
		rec := []string{
			series.Kind,
			strconv.Itoa(p.N),
			strconv.Itoa(p.Param),
			strconv.FormatInt(p.Comparisons, 10),
			fmt.Sprintf("%.6f", p.NormalizedNew),
			fmt.Sprintf("%.6f", p.NormalizedOld),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteZetaExponentCSV writes a zeta exponent sweep as rows of
// (s, exponent).
func WriteZetaExponentCSV(w io.Writer, sweep []ZetaExponentPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"s", "loglog_exponent"}); err != nil {
		return err
	}
	for _, p := range sweep {
		rec := []string{
			fmt.Sprintf("%.3f", p.S),
			fmt.Sprintf("%.4f", p.Exponent),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
