// Package asciiplot renders data series as fixed-width ASCII charts for
// the cmd/figures reproduction harness — enough to eyeball that a curve
// has the published shape without leaving the terminal.
package asciiplot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
)

// markers label successive series in a chart.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Chart renders one or more series on shared axes in a width×height
// character grid, with per-series markers, a legend, and axis labels.
// Series may have different X grids; each point lands in its nearest cell.
func Chart(title string, width, height int, series ...*stats.Series) string {
	if width < 16 || height < 4 {
		panic("asciiplot: chart too small")
	}
	if len(series) == 0 {
		return title + "\n(no data)\n"
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := 0; i < s.Len(); i++ {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	// Degenerate-range guard: maxX is a verbatim copy of some sample, equality is exact by construction
	if maxX == minX {
		maxX = minX + 1
	}
	// Degenerate-range guard: maxY is a verbatim copy of some sample, equality is exact by construction
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := 0; i < s.Len(); i++ {
			c := int(float64(width-1) * (s.X[i] - minX) / (maxX - minX))
			r := height - 1 - int(float64(height-1)*(s.Y[i]-minY)/(maxY-minY))
			grid[r][c] = m
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", maxY)
		case height - 1:
			label = fmt.Sprintf("%8.3g", minY)
		}
		fmt.Fprintf(&b, "%8s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%8s  %-*.3g%*.3g\n", "", width/2, minX, width-width/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "%10c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// TSV renders the series as tab-separated columns on a shared X column
// (the first series' X grid; other series are matched by index). Suitable
// for piping into a real plotting tool.
func TSV(header string, series ...*stats.Series) string {
	var b strings.Builder
	b.WriteString("# " + header + "\nx")
	for _, s := range series {
		b.WriteString("\t" + s.Name)
	}
	b.WriteString("\n")
	if len(series) == 0 {
		return b.String()
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() < n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&b, "\t%g", s.Y[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
