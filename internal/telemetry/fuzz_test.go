package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prof"
)

// TestRenderSpanOverflow: a series spanning [-1e308, 1e308] passes Validate,
// so dspmon must render it — its min..max difference overflows to +Inf, which
// once turned every column index into int(NaN).
func TestRenderSpanOverflow(t *testing.T) {
	d, err := ReadDocFile(filepath.Join("testdata", "overflow.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
	want := "▁▁▁▁▁██"
	if got := Sparkline([]float64{-1e308, -1e308, 1e308}, 7); got != want {
		t.Fatalf("sparkline %q, want %q", got, want)
	}
}

// FuzzDoc feeds arbitrary bytes through everything dspmon does with a
// document read from disk: ParseDoc, Validate, Render, WriteProm, and the
// run-report telemetry section built from it. Seeded with a dspserve
// -telemetry-out export with fired alerts and the overflow document. A bad
// document is an error; nothing may panic.
func FuzzDoc(f *testing.F) {
	for _, name := range []string{"serve.json", "overflow.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDoc(bytes.NewReader(data))
		if err != nil || d.Validate() != nil {
			return
		}
		if err := d.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
		r := prof.New("dspserve")
		r.Telemetry = d.Section()
		_ = r.Validate()
	})
}
