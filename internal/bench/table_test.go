package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

func TestTableCellErrors(t *testing.T) {
	tb := NewTable("t", "ms", []string{"r1", "r2"}, []string{"c1", "c2"})
	tb.Set("r2", "c1", 4.5)
	if v := tb.Get("r2", "c1"); v != 4.5 {
		t.Fatalf("Get = %v; want 4.5", v)
	}
	// An unknown name panics with a message naming it and listing the valid
	// ones, from Set and Get alike.
	for _, tc := range []struct {
		name string
		op   func()
		want []string
	}{
		{"Get unknown row", func() { tb.Get("nope", "c1") }, []string{`unknown row "nope"`, "r1, r2"}},
		{"Set unknown col", func() { tb.Set("r1", "nope", 1) }, []string{`unknown col "nope"`, "c1, c2"}},
		{"Set unknown row", func() { tb.Set("nope", "c1", 1) }, []string{`unknown row "nope"`, "r1, r2"}},
		{"Get unknown col", func() { tb.Get("r1", "nope") }, []string{`unknown col "nope"`, "c1, c2"}},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
				for _, w := range tc.want {
					if msg := fmt.Sprint(r); !strings.Contains(msg, w) {
						t.Fatalf("%s: panic %q does not contain %q", tc.name, msg, w)
					}
				}
			}()
			tc.op()
		}()
	}
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
