package exp

import (
	"fmt"
	"strings"
)

// SweepReport renders cell summaries as a human-readable comparison
// table: one row per cell with the final-sample quality (mean ± std over
// repetitions), mean time and evaluation counts, mean dropped messages,
// and — when the sweep declares a threshold — the mean time-to-threshold
// with the reached/total ratio. The row with the best (lowest) mean
// quality is marked '*'; with a threshold, the row with the best mean
// time-to-threshold among fully-reaching cells is marked '>' ('*>' when
// one cell wins both).
func SweepReport(title string, cells []CellSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sweep %s ==\n", title)
	hasThreshold := false
	for i := range cells {
		if cells[i].Threshold != nil {
			hasThreshold = true
			break
		}
	}
	width := 12
	for i := range cells {
		if n := len(cells[i].Cell); n > width {
			width = n
		}
	}
	fmt.Fprintf(&b, "   %-*s %5s %24s %10s %10s %10s", width, "cell", "reps",
		"quality (mean±std)", "time", "evals", "dropped")
	if hasThreshold {
		fmt.Fprintf(&b, " %16s", "to-thr (reached)")
	}
	b.WriteString("\n")

	bestQ, bestT := -1, -1
	for i := range cells {
		c := &cells[i]
		if c.Quality.N > 0 && (bestQ < 0 || c.Quality.Mean < cells[bestQ].Quality.Mean) {
			bestQ = i
		}
		if c.Threshold != nil && c.Reached == c.Reps && c.Reps > 0 &&
			(bestT < 0 || c.ToThreshold.Mean < cells[bestT].ToThreshold.Mean) {
			bestT = i
		}
	}
	for i := range cells {
		c := &cells[i]
		mark := ""
		if i == bestQ {
			mark += "*"
		}
		if i == bestT {
			mark += ">"
		}
		fmt.Fprintf(&b, "%-2s %-*s %5d %24s %10.5g %10.5g %10.5g", mark, width, c.Cell, c.Reps,
			fmt.Sprintf("%.5g±%.3g", c.Quality.Mean, c.Quality.Std),
			c.Time.Mean, c.Evals.Mean, c.Dropped.Mean)
		if hasThreshold {
			if c.Reached > 0 {
				fmt.Fprintf(&b, " %10.5g %2d/%2d", c.ToThreshold.Mean, c.Reached, c.Reps)
			} else {
				// ASCII dash: %10s pads by bytes, so a multi-byte dash
				// would misalign the column.
				fmt.Fprintf(&b, " %10s %2d/%2d", "-", 0, c.Reps)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
