// Package eval implements the paper's evaluation methodology (§6.1):
// F1/ACC metrics over root-cause queries, dataset construction (training
// corpora, SLO calibration, chaos-driven anomaly queries with exact ground
// truth), algorithm evaluation with and without trace clustering, and text
// rendering of the tables and figures.
package eval

import (
	"fmt"
	"strings"
)

// Confusion accumulates TP/FP/FN across root-cause queries, following the
// §6.1.5 definitions: per query, TP = predicted ∩ real, FP = predicted \
// real, FN = real \ predicted; F1 aggregates counts across queries; ACC is
// the fraction of queries matched exactly.
type Confusion struct {
	TP, FP, FN int
	Exact      int
	Queries    int
}

// Add records one query's predicted and real root-cause sets.
func (c *Confusion) Add(pred, real []string) {
	c.Queries++
	predSet := toSet(pred)
	realSet := toSet(real)
	exact := len(predSet) == len(realSet)
	for p := range predSet {
		if realSet[p] {
			c.TP++
		} else {
			c.FP++
			exact = false
		}
	}
	for r := range realSet {
		if !predSet[r] {
			c.FN++
			exact = false
		}
	}
	if exact {
		c.Exact++
	}
}

// Merge folds another confusion into this one.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
	c.Exact += o.Exact
	c.Queries += o.Queries
}

// F1 returns 2TP / (2TP + FP + FN), or 0 with no predictions.
func (c *Confusion) F1() float64 {
	denom := 2*c.TP + c.FP + c.FN
	if denom == 0 {
		return 0
	}
	return float64(2*c.TP) / float64(denom)
}

// ACC returns the exact-match rate.
func (c *Confusion) ACC() float64 {
	if c.Queries == 0 {
		return 0
	}
	return float64(c.Exact) / float64(c.Queries)
}

// String renders the confusion for logs.
func (c *Confusion) String() string {
	return fmt.Sprintf("F1=%.2f ACC=%.2f (TP=%d FP=%d FN=%d over %d queries)",
		c.F1(), c.ACC(), c.TP, c.FP, c.FN, c.Queries)
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// Table renders rows of cells with aligned columns — the text analogue of
// the paper's tables; benchrunner and the benches print these.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Series is a named list of (x, y) points — the text analogue of one curve
// in the paper's figures.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// String renders the series as aligned columns.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	for i := range s.X {
		fmt.Fprintf(&b, "%12.4g  %12.4g\n", s.X[i], s.Y[i])
	}
	return b.String()
}
