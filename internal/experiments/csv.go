package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// CSV exports: every experiment's series in a plot-ready form, so the
// paper's log-log figures can be redrawn from the reproduction with any
// plotting tool.

func writeCSV(dir, name string, header []string, rows [][]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteByte('\n')
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%.10g", v)
		}
		sb.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644)
}

// DumpFig5CSV writes the Figure 5 series.
func DumpFig5CSV(dir string, series []Fig5Point) error {
	rows := make([][]float64, len(series))
	for i, p := range series {
		rows[i] = []float64{float64(p.Retrieved), p.MeanRel, p.TotalRel}
	}
	return writeCSV(dir, "fig5.csv", []string{"retrieved", "mean_rel_err", "total_rel_err"}, rows)
}

// DumpFig67CSV writes the Figures 6–7 curves.
func DumpFig67CSV(dir string, res *Fig67Result) error {
	rows := make([][]float64, len(res.Retrieved))
	for i, r := range res.Retrieved {
		rows[i] = []float64{
			float64(r),
			res.SSEOptimizedNormSSE[i], res.CursorOptimizedNormSSE[i],
			res.SSEOptimizedNormCursored[i], res.CursorOptimizedNormCursored[i],
			res.SSEOptimizedCursorOnly[i], res.CursorOptimizedCursorOnly[i],
		}
	}
	return writeCSV(dir, "fig67.csv", []string{
		"retrieved",
		"nsse_opt_sse", "nsse_opt_cur",
		"ncur_opt_sse", "ncur_opt_cur",
		"screen_opt_sse", "screen_opt_cur",
	}, rows)
}

// DumpDataVsQueryCSV writes the four-strategy comparison.
func DumpDataVsQueryCSV(dir string, rows []DataVsQueryRow) error {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = []float64{
			float64(r.B),
			r.QueryMeanRel, r.QueryTotalRel,
			r.DataMeanRel, r.DataTotalRel,
			r.HistMeanRel, r.HistTotalRel,
			r.SampleMeanRel, r.SampleTotalRel,
		}
	}
	return writeCSV(dir, "dvq.csv", []string{
		"budget",
		"query_mean", "query_total",
		"data_mean", "data_total",
		"hist_mean", "hist_total",
		"sample_mean", "sample_total",
	}, out)
}

// DumpLayoutCSV writes the layout study. A row name holding a comma is
// quoted.
func DumpLayoutCSV(dir string, rows []LayoutRow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	records := [][]string{{"layout", "blocks_at_10pct", "blocks_exact"}}
	for _, r := range rows {
		records = append(records, []string{r.Name, fmt.Sprint(r.BlocksAt10Pct), fmt.Sprint(r.BlocksExact)})
	}
	var sb strings.Builder
	if err := csv.NewWriter(&sb).WriteAll(records); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layout.csv"), []byte(sb.String()), 0o644)
}
