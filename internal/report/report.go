// Package report renders experiment results as aligned text tables and
// series, the output layer shared by the cmd tools and the benchmark
// harness.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows under a fixed header and renders them aligned.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends one row; cells beyond the header width are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends one row of formatted cells, each rendered with %v.
func (t *Table) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.2f", v)
		case float32:
			s[i] = fmt.Sprintf("%.2f", v)
		default:
			s[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(s...)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "%s\n", t.title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// Series renders an (x, y...) sequence as aligned columns — the
// figure-reproduction format (plot-ready with any external tool).
type Series struct {
	title  string
	labels []string
	points [][]float64
}

// NewSeries creates a series set with an x label followed by one label
// per curve.
func NewSeries(title string, labels ...string) *Series {
	return &Series{title: title, labels: labels}
}

// Add appends one sample; the arity must match the label count.
func (s *Series) Add(values ...float64) {
	if len(values) != len(s.labels) {
		panic(fmt.Sprintf("report: series %q expects %d values, got %d", s.title, len(s.labels), len(values)))
	}
	s.points = append(s.points, append([]float64(nil), values...))
}

// WriteText renders the series as a fixed-width table.
func (s *Series) WriteText(w io.Writer) {
	t := NewTable(s.title, s.labels...)
	for _, p := range s.points {
		cells := make([]any, len(p))
		for i, v := range p {
			cells[i] = fmt.Sprintf("%.4g", v)
		}
		t.AddRowf(cells...)
	}
	t.WriteText(w)
}
