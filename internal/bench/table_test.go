package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

func TestTableCellErrors(t *testing.T) {
	tb := NewTable("t", "ms", []string{"r1", "r2"}, []string{"c1", "c2"})
	if err := tb.SetCell("r2", "c1", 4.5); err != nil {
		t.Fatalf("SetCell on known names: %v", err)
	}
	v, err := tb.GetCell("r2", "c1")
	if err != nil || v != 4.5 {
		t.Fatalf("GetCell = %v, %v; want 4.5, nil", v, err)
	}
	if _, err := tb.GetCell("nope", "c1"); err == nil {
		t.Fatal("GetCell with unknown row: want error")
	} else if !strings.Contains(err.Error(), `unknown row "nope"`) || !strings.Contains(err.Error(), "r1, r2") {
		t.Fatalf("unknown-row error should name the row and list valid ones, got: %v", err)
	}
	if err := tb.SetCell("r1", "nope", 1); err == nil {
		t.Fatal("SetCell with unknown col: want error")
	} else if !strings.Contains(err.Error(), `unknown col "nope"`) || !strings.Contains(err.Error(), "c1, c2") {
		t.Fatalf("unknown-col error should name the col and list valid ones, got: %v", err)
	}
	// The panicking wrappers delegate to the same resolution.
	defer func() {
		if recover() == nil {
			t.Fatal("Get with unknown names should panic")
		}
	}()
	tb.Get("nope", "c1")
}

func TestTableWriteJSON(t *testing.T) {
	tb := NewTable("grid", "s", []string{"a"}, []string{"x", "y"})
	tb.Set("a", "y", 2)
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title string      `json:"title"`
		Cols  []string    `json:"cols"`
		Cells [][]float64 `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Title != "grid" || len(got.Cols) != 2 || got.Cells[0][1] != 2 {
		t.Fatalf("unexpected JSON round-trip: %+v", got)
	}
}

// TestSweepRegistry: the seven parameter sweeps are experiments like any
// other, and Run refuses a table with a non-finite cell instead of printing
// it.
func TestSweepRegistry(t *testing.T) {
	for _, name := range []string{"serve-load", "cache-sweep", "compress-sweep", "router-sweep",
		"ooc-sweep", "strategy-sweep", "fault-sweep"} {
		if _, ok := Experiments[name]; !ok {
			t.Errorf("sweep %q not registered in Experiments", name)
		}
	}
	nan := func(RunConfig) (*Table, error) {
		tb := NewTable("nan", "x", []string{"r"}, []string{"a", "b"})
		tb.Set("r", "b", math.NaN())
		return tb, nil
	}
	if err := Run(io.Discard, nan, RunConfig{}); err == nil || !strings.Contains(err.Error(), "cell (r, b) is NaN") {
		t.Fatalf("runner accepted a NaN cell: %v", err)
	}
}
