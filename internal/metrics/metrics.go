// Package metrics provides the nearest-rank latency percentiles every tail
// latency in the simulator is read with, the sample mean, and the tables the
// experiments print (aligned text and CSV).
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0 < p <= 100) of samples using
// nearest-rank on a sorted copy. It returns 0 for an empty sample set.
func Percentile(samples []uint32, p float64) uint32 {
	return Quantiles(samples, p)[0]
}

// Quantiles returns the nearest-rank percentiles of samples at each p in ps,
// sorting the samples once. Callers computing several percentiles of the same
// set (p50/p95/p99) should prefer this over repeated Percentile calls, which
// re-sort on every call. An empty sample set yields all zeros.
func Quantiles(samples []uint32, ps ...float64) []uint32 {
	out := make([]uint32, len(ps))
	if len(samples) == 0 {
		return out
	}
	sorted := make([]uint32, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		rank := int(p/100*float64(len(sorted))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		out[i] = sorted[rank]
	}
	return out
}

// Mean returns the arithmetic mean of samples (0 when empty).
func Mean(samples []uint32) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return sum / float64(len(samples))
}

// Table renders an aligned text table for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row, formatting each value with %v and floats as %.3f.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values (header row
// first, fields quoted only when needed) for import into external tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, r := range t.Rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
