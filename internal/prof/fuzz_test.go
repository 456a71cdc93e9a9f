package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to both documents dspprof reads from disk:
// a run report (ParseReport, which validates it) and a Chrome trace
// (ParseTrace, then Analyze and the profile's Validate). Seeded with a
// dsptrain run report and trace and a dspserve run report carrying fault and
// telemetry sections. A bad document is an error; nothing may panic.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"train-report.json", "serve-report.json", "train-trace.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseReport(data)
		tr, err := ParseTrace(data)
		if err != nil {
			return
		}
		_ = Analyze(tr).Validate()
	})
}
