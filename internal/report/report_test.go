package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"name", "count"},
	}
	tbl.AddRow("short", "1")
	tbl.AddRow("a-much-longer-name", "12345")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	// Columns align: "count" header starts where the numbers start.
	hIdx := strings.Index(lines[1], "count")
	rIdx := strings.Index(lines[4], "12345")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := &Table{Headers: []string{"h"}}
	tbl.AddRow("v")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Error("titleless table should not lead with a newline")
	}
}

func TestTableExtraCells(t *testing.T) {
	tbl := &Table{Headers: []string{"a"}}
	tbl.AddRow("1", "overflow")
	if !strings.Contains(tbl.String(), "overflow") {
		t.Error("extra cells should still render")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(25, 100); got != "25.0%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(1, 3); got != "33.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(5, 0); got != "-" {
		t.Errorf("Pct(%q) with zero total", got)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "cdf", Labels: []string{"a", "b", "c"}, Values: []float64{0.5, 1}}
	out := s.String()
	if !strings.Contains(out, "cdf:") || !strings.Contains(out, "a=0.500") ||
		!strings.Contains(out, "b=1.000") || !strings.Contains(out, "c=0.000") {
		t.Errorf("Series = %q", out)
	}
}
