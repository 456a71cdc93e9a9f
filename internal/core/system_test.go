package core_test

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/train"
)

// TestNewSystemHonoursOrRefuses is the option matrix of the system table:
// every name core.NewSystem accepts, crossed with every option a baseline
// cannot honour, either runs an epoch or is refused by an error naming the
// field. A baseline used to build with any of them and drop it silently, so
// a comparison row could report a configuration it never ran.
func TestNewSystemHonoursOrRefuses(t *testing.T) {
	td := train.Prepare(gen.Generate(gen.Config{
		Name: "matrix", Nodes: 2000, AvgDegree: 10, FeatDim: 16, NumClasses: 4, Seed: 7,
	}), 2, 1, true)
	options := []struct {
		field string
		set   func(*train.Options)
	}{
		{"DynamicCache", func(o *train.Options) { o.DynamicCache = cache.LFUDecay }},
		{"FeatureCacheBudget", func(o *train.Options) { o.FeatureCacheBudget = 1 << 16 }},
		{"FeatCodec", func(o *train.Options) { o.FeatCodec = compress.NewInt8(1) }},
		{"CompressTopology", func(o *train.Options) { o.CompressTopology = true }},
		{"OOC", func(o *train.Options) { o.OOC = true }},
		{"OOCBudget", func(o *train.Options) { o.OOCBudget = 1 << 16 }},
		{"OOCNoPrefetch", func(o *train.Options) { o.OOCNoPrefetch = true }},
		{"Strategy", func(o *train.Options) { o.Strategy = "p3" }},
		{"Faults", func(o *train.Options) { o.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 1, At: 1}} }},
	}
	// The spellings vary case and hyphen; the first two name DSP.
	names := []string{"dsp", "DSP-Seq", "pyg", "DGL-CPU", "dgluva", "Quiver"}
	for i, name := range names {
		if _, err := core.NewSystem(name, smallOpts(td)); err != nil {
			t.Fatalf("%s with no option set: %v", name, err)
		}
		for _, o := range options {
			opts := smallOpts(td)
			o.set(&opts)
			// Without OOC, DSP refuses the out-of-core knobs too.
			refuse := i > 1 || (i == 1 && o.field == "Strategy") ||
				o.field == "OOCBudget" || o.field == "OOCNoPrefetch"
			sys, err := core.NewSystem(name, opts)
			switch {
			case refuse && err == nil:
				t.Errorf("%s accepted %s", name, o.field)
			case refuse && !strings.Contains(err.Error(), o.field):
				t.Errorf("%s refused %s with an error not naming it: %v", name, o.field, err)
			case !refuse && err != nil:
				t.Errorf("%s with %s: %v", name, o.field, err)
			case !refuse:
				if _, err := sys.RunEpoch(0); err != nil {
					t.Errorf("%s with %s: epoch: %v", name, o.field, err)
				}
			}
		}
	}
	if _, err := core.NewSystem("p3", smallOpts(td)); err == nil {
		t.Error("NewSystem accepted p3, a strategy, as a system name")
	}
	// FastGCN runs sampling epochs only: it is Table 7's, not a trainer.
	if _, err := core.NewSystem("FastGCN", smallOpts(td)); err == nil || !strings.Contains(err.Error(), "-system") {
		t.Errorf("NewSystem(FastGCN) = %v, want a refusal naming -system", err)
	}
}

// TestEnumFlagsParseBack: every value of an enum flag parses back from its
// String, the short spellings parse, and anything else is an error.
func TestEnumFlagsParseBack(t *testing.T) {
	for _, a := range []nn.Arch{nn.SAGE, nn.GCN, nn.GAT} {
		if got, err := nn.ParseArch(a.String()); err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	for s, a := range map[string]nn.Arch{"sage": nn.SAGE, "gcn": nn.GCN, "gat": nn.GAT} {
		if got, err := nn.ParseArch(s); err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v", s, got, err)
		}
	}
	for _, b := range []serve.Batching{serve.BatchDynamic, serve.BatchSingle, serve.BatchFixed} {
		if got, err := serve.ParseBatching(b.String()); err != nil || got != b {
			t.Errorf("ParseBatching(%q) = %v, %v", b.String(), got, err)
		}
	}
	if got, err := serve.ParseBatching("single"); err != nil || got != serve.BatchSingle {
		t.Errorf("ParseBatching(single) = %v, %v", got, err)
	}
	if _, err := nn.ParseArch("nonsense"); err == nil {
		t.Error("ParseArch accepted nonsense")
	}
	if _, err := serve.ParseBatching("nonsense"); err == nil {
		t.Error("ParseBatching accepted nonsense")
	}
}
