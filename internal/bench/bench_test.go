package bench

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// quick is the fast test configuration: heavily shrunk datasets, one
// measured epoch (the simulator is deterministic).
var quick = RunConfig{Shrink: 12, Warmup: 0, Measure: 1}

func TestTable1MatchesPaper(t *testing.T) {
	tab, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]string]float64{
		{"PCIe", "1-GPU"}: 32, {"PCIe", "2-GPU"}: 32, {"PCIe", "4-GPU"}: 64, {"PCIe", "8-GPU"}: 128,
		{"NVLink", "1-GPU"}: 0, {"NVLink", "2-GPU"}: 100, {"NVLink", "4-GPU"}: 400, {"NVLink", "8-GPU"}: 1200,
	}
	for k, v := range want {
		if got := tab.Get(k[0], k[1]); got != v {
			t.Errorf("%v = %v, want %v", k, got, v)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tab, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		// Time decreases from the first to a middle column, then the last
		// two columns are nearly equal (plateau).
		first := tab.Get(row, tab.Cols[0])
		mid := tab.Get(row, tab.Cols[3])
		last := tab.Get(row, tab.Cols[len(tab.Cols)-1])
		prev := tab.Get(row, tab.Cols[len(tab.Cols)-2])
		if !(first > mid) {
			t.Errorf("%s: no speedup from %v to %v threads", row, tab.Cols[0], tab.Cols[3])
		}
		if math.Abs(last-prev)/prev > 0.05 {
			t.Errorf("%s: no plateau at high thread counts (%v vs %v)", row, prev, last)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tab, err := Fig1(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		uva := tab.Get("UVA", ds)
		csp := tab.Get("CSP", ds)
		if uva <= 2 {
			t.Errorf("%s: UVA amplification %.2fx, want >2x over Ideal", ds, uva)
		}
		if csp >= 1 {
			t.Errorf("%s: CSP %.2fx not below Ideal (paper footnote: local accesses are free)", ds, csp)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full epoch-time sweep")
	}
	tab, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	t.Log("\n" + buf.String())
	for _, col := range tab.Cols {
		dsp := tab.Get("DSP", col)
		for _, sysName := range []string{"PyG", "DGL-CPU", "Quiver", "DGL-UVA"} {
			if dsp >= tab.Get(sysName, col) {
				t.Errorf("%s: DSP (%.4g) not fastest (vs %s %.4g)", col, dsp, sysName, tab.Get(sysName, col))
			}
		}
	}
	// CPU systems barely scale 1->8 GPUs; DSP scales well.
	for _, ds := range dsList {
		pygScale := tab.Get("PyG", colName(ds, 1)) / tab.Get("PyG", colName(ds, 8))
		dspScale := tab.Get("DSP", colName(ds, 1)) / tab.Get("DSP", colName(ds, 8))
		if dspScale <= pygScale {
			t.Errorf("%s: DSP scaling %.2fx not above PyG %.2fx", ds, dspScale, pygScale)
		}
		if dspScale < 2.5 {
			t.Errorf("%s: DSP 1->8 GPU speedup only %.2fx", ds, dspScale)
		}
		if pygScale > 3 {
			t.Errorf("%s: PyG scales %.2fx 1->8 GPUs; CPU sampling should bottleneck", ds, pygScale)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("epoch-time sweep")
	}
	tab, err := Table5(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tab.Cols {
		dsp := tab.Get("DSP", col)
		for _, sysName := range []string{"PyG", "DGL-CPU", "Quiver", "DGL-UVA"} {
			if dsp >= tab.Get(sysName, col) {
				t.Errorf("%s: DSP not fastest for GCN (vs %s)", col, sysName)
			}
		}
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling sweep")
	}
	tab, err := Table6(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tab.Cols {
		dsp := tab.Get("DSP", col)
		uva := tab.Get("DGL-UVA", col)
		cpu := tab.Get("DGL-CPU", col)
		if dsp >= uva {
			t.Errorf("%s: CSP (%.4g) not faster than UVA (%.4g)", col, dsp, uva)
		}
		if uva >= cpu {
			t.Errorf("%s: UVA (%.4g) not faster than CPU (%.4g)", col, uva, cpu)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	// FastGCN's cost is an O(N) scan per layer, so its disadvantage grows
	// with graph size; run at moderate shrink so N is meaningful.
	tab, err := Table7(RunConfig{Shrink: 4, Warmup: 0, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		fg := tab.Get("FastGCN", ds)
		dsp := tab.Get("DSP", ds)
		if dsp >= fg {
			t.Errorf("%s: DSP layer-wise (%.4g) not faster than FastGCN (%.4g)", ds, dsp, fg)
		}
	}
	// On the larger graphs the gap is at least 5x (paper: orders of
	// magnitude at full scale).
	for _, ds := range []string{"papers", "friendster"} {
		if tab.Get("DSP", ds)*5 >= tab.Get("FastGCN", ds) {
			t.Errorf("%s: layer-wise gap below 5x (DSP %.4g, FastGCN %.4g)", ds, tab.Get("DSP", ds), tab.Get("FastGCN", ds))
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("utilization sweep")
	}
	tab, err := Fig6(RunConfig{Shrink: 6, Warmup: 0, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tab.Cols {
		if tab.Get("DSP", col) <= tab.Get("DSP-Seq", col) {
			t.Errorf("%s: pipeline utilization (%.1f) not above sequential (%.1f)",
				col, tab.Get("DSP", col), tab.Get("DSP-Seq", col))
		}
	}
	// The gap widens with GPU count on the large graphs (products is fully
	// cached and overhead-bound, where the 1-GPU gap is already large).
	for _, ds := range []string{"papers", "friendster"} {
		gap1 := tab.Get("DSP", colName(ds, 1)) - tab.Get("DSP-Seq", colName(ds, 1))
		gap8 := tab.Get("DSP", colName(ds, 8)) - tab.Get("DSP-Seq", colName(ds, 8))
		if gap8 <= gap1 {
			t.Errorf("%s: utilization gap does not widen with GPUs: %.2f at 1, %.2f at 8", ds, gap1, gap8)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real training")
	}
	tab, err := Fig9(RunConfig{Shrink: 4, Warmup: 0, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Cols[len(tab.Cols)-1]
	// Accuracy-vs-batch identical across systems (BSP equivalence).
	for _, col := range tab.Cols {
		a := tab.Get("DSP/acc", col)
		for _, s := range []string{"DGL-UVA", "Quiver"} {
			if b := tab.Get(s+"/acc", col); math.Abs(a-b) > 1e-9 {
				t.Errorf("%s: accuracy diverges at %s: %v vs %v", s, col, a, b)
			}
		}
	}
	// Learning actually happens.
	if tab.Get("DSP/acc", last) < 2*tab.Get("DSP/acc", tab.Cols[0])/2+0.2 {
		if tab.Get("DSP/acc", last) < 0.3 {
			t.Errorf("no learning: final acc %v", tab.Get("DSP/acc", last))
		}
	}
	// DSP reaches the end in less virtual time.
	for _, s := range []string{"DGL-UVA", "Quiver"} {
		if tab.Get("DSP/time", last) >= tab.Get(s+"/time", last) {
			t.Errorf("DSP cumulative time %v not below %s %v", tab.Get("DSP/time", last), s, tab.Get(s+"/time", last))
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache sweep")
	}
	tab, err := Fig10(RunConfig{Shrink: 6, Warmup: 0, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	t.Log("\n" + buf.String())
	lastCol := tab.Cols[len(tab.Cols)-1]
	// Papers reproduces the full U: interior optimum on epoch time.
	best := math.Inf(1)
	bestIdx := -1
	for i, c := range tab.Cols {
		if v := tab.Get("papers", c); v < best {
			best, bestIdx = v, i
		}
	}
	if bestIdx == 0 || bestIdx == len(tab.Cols)-1 {
		t.Errorf("papers: optimum at extreme %s", tab.Cols[bestIdx])
	}
	// Both datasets: a starved feature cache hurts (left flank falls)...
	for _, ds := range []string{"papers", "friendster"} {
		if tab.Get(ds, tab.Cols[0]) <= tab.Get(ds, tab.Cols[2]) {
			t.Errorf("%s: left flank does not fall (%.4g vs %.4g)", ds, tab.Get(ds, tab.Cols[0]), tab.Get(ds, tab.Cols[2]))
		}
		// ...and a starved topology cache inflates sampling time steeply
		// (the paper's right-flank mechanism).
		sLeft := tab.Get(ds+"/sampling", tab.Cols[0])
		sRight := tab.Get(ds+"/sampling", lastCol)
		if sRight < 1.3*sLeft {
			t.Errorf("%s: topology spill does not inflate sampling (%.4g -> %.4g)", ds, sLeft, sRight)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		if tab.Get("CSP", ds) >= tab.Get("PullData", ds) {
			t.Errorf("%s: CSP (%.4g) not faster than PullData (%.4g)", ds, tab.Get("CSP", ds), tab.Get("PullData", ds))
		}
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline sweep")
	}
	tab, err := Fig12(RunConfig{Shrink: 6, Warmup: 0, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Rows {
		s1 := tab.Get(ds, "1-GPU")
		s8 := tab.Get(ds, "8-GPU")
		if s8 < 1.15 {
			t.Errorf("%s: 8-GPU pipeline speedup %.2fx, want >1.15x", ds, s8)
		}
		// Speedup grows with GPU count on the large graphs (products is
		// overhead-bound at 1 GPU already).
		if ds != "products" && s8 <= s1 {
			t.Errorf("%s: speedup does not grow with GPUs (%.2f at 1, %.2f at 8)", ds, s1, s8)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps")
	}
	for name, fn := range map[string]func(RunConfig) (*Table, error){
		"layout": AblationPartition,
		"queue":  AblationQueueCap,
		"cache":  AblationReplicatedCache,
	} {
		tab, err := fn(quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 || len(tab.Cols) == 0 {
			t.Fatalf("%s: empty table", name)
		}
	}
}

func TestAblationPartitionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	tab, err := AblationPartition(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		if tab.Get("metis/sample-MB", ds) >= tab.Get("hash/sample-MB", ds) {
			t.Errorf("%s: METIS sampling volume not below hash", ds)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) < 12 {
		t.Fatalf("registry has %d experiments", len(Experiments))
	}
	var buf bytes.Buffer
	if err := Run(&buf, Experiments["table1"], quick); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("runner produced no output")
	}
}

func TestAblationFusedShape(t *testing.T) {
	tab, err := AblationFusedKernels(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		if tab.Get("fused", ds) >= tab.Get("per-task", ds) {
			t.Errorf("%s: fused sampling (%.4g) not faster than per-task (%.4g)",
				ds, tab.Get("fused", ds), tab.Get("per-task", ds))
		}
	}
}

// TestAblationMultiWorkerRuns runs the sweep at the CLI's epoch counts — the
// multi-instance pipeline used to deadlock in its second epoch, which one
// measured epoch never reached — and holds the paper's §5 conclusion where
// memory is the constraint: on the graphs that do not fit the cache, no
// multi-instance shape beats one sampler and one loader.
func TestAblationMultiWorkerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("worker sweep")
	}
	tab, err := AblationMultiWorker(RunConfig{Shrink: 12, Warmup: 1, Measure: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		single := tab.Get("1S/1L", ds)
		if single <= 0 {
			t.Errorf("1S/1L %s: no epoch time", ds)
		}
		for _, row := range tab.Rows[1:] {
			if got := tab.Get(row, ds); got <= 0 || (ds != "products" && got < single) {
				t.Errorf("%s %s: epoch %.4g, single-instance %.4g", row, ds, got, single)
			}
		}
	}
}

func TestExtensionMultiMachineScales(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab, err := AblationMultiMachine(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		one := tab.Get("1 machine", ds)
		four := tab.Get("4 machines", ds)
		if four >= one {
			t.Errorf("%s: 4 machines (%.4g) not faster than 1 (%.4g)", ds, four, one)
		}
	}
}

func TestExtensionGNNArchOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("arch sweep")
	}
	tab, err := ExtensionGNNArchs(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Cols {
		gcn, sage, gat := tab.Get("GCN", ds), tab.Get("GraphSAGE", ds), tab.Get("GAT", ds)
		if !(gcn <= sage && sage <= gat) {
			t.Errorf("%s: epoch times not ordered GCN<=SAGE<=GAT: %.4g %.4g %.4g", ds, gcn, sage, gat)
		}
	}
}

func TestServeLoadShape(t *testing.T) {
	tab, err := ServeLoad(quick)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tab.Cols[0], tab.Cols[len(tab.Cols)-1]
	// batch=1 exhibits the hockey stick: tail latency explodes past its
	// saturation point and admission control sheds heavily.
	if s1lo, s1hi := tab.Get("batch=1 p99", lo), tab.Get("batch=1 p99", hi); s1hi < 5*s1lo {
		t.Errorf("batch=1 p99 should explode past saturation: %.3f -> %.3f ms", s1lo, s1hi)
	}
	if shed := tab.Get("batch=1 shed%", hi); shed <= 10 {
		t.Errorf("batch=1 should shed heavily at %s, got %.1f%%", hi, shed)
	}
	// Dynamic micro-batching strictly beats batch=1 at high load on both
	// tail latency and shed rate.
	if d, s := tab.Get("dynamic p99", hi), tab.Get("batch=1 p99", hi); d >= s {
		t.Errorf("dynamic p99 %.3f ms not better than batch=1 %.3f ms at %s", d, s, hi)
	}
	if d, s := tab.Get("dynamic shed%", hi), tab.Get("batch=1 shed%", hi); d >= s {
		t.Errorf("dynamic shed %.1f%% not better than batch=1 %.1f%% at %s", d, s, hi)
	}
	// Fixed-batch strands partial batches at low load.
	if f, d := tab.Get("fixed p99", lo), tab.Get("dynamic p99", lo); f <= d {
		t.Errorf("fixed p99 %.3f ms should exceed dynamic %.3f ms at %s", f, d, lo)
	}
}

func TestFaultSweepShape(t *testing.T) {
	tab, err := FaultSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tab.Cols[0], tab.Cols[len(tab.Cols)-1]
	if dead := tab.Get("dead GPUs", lo); dead != 0 {
		t.Errorf("fault-free column reports %g dead GPUs", dead)
	}
	if dead := tab.Get("dead GPUs", hi); dead < 1 {
		t.Errorf("highest crash rate killed no GPUs")
	}
	// The fleet keeps answering even at the highest crash rate, at reduced
	// but non-zero throughput.
	if thr := tab.Get("throughput req/s", hi); thr <= 0 {
		t.Errorf("no throughput under faults")
	}
	if thr, clean := tab.Get("throughput req/s", hi), tab.Get("throughput req/s", lo); thr >= clean {
		t.Errorf("throughput did not degrade under crashes: %.0f vs fault-free %.0f", thr, clean)
	}
	if mttr := tab.Get("mean MTTR ms", hi); mttr <= 0 {
		t.Errorf("no MTTR recorded despite dead GPUs")
	}
	if un := tab.Get("unanswered %", hi); un < 0 || un >= 100 {
		t.Errorf("unanswered%% %.1f out of range", un)
	}
}

func TestCacheSweepOrdering(t *testing.T) {
	tab, err := CacheSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	static, lfu := tab.Get("static", "hit%"), tab.Get("lfu-decay", "hit%")
	if lfu <= static {
		t.Errorf("lfu-decay hit %.2f%% not above static %.2f%% under drift", lfu, static)
	}
	if tab.Get("static", "migrated MB") != 0 || tab.Get("static", "rebal%") != 0 {
		t.Error("static policy paid migration cost")
	}
	for _, pol := range []string{"lfu-decay", "degree-hybrid"} {
		if tab.Get(pol, "migrated MB") <= 0 {
			t.Errorf("%s migrated nothing", pol)
		}
	}
}

func TestRouterSweepOrdering(t *testing.T) {
	tab, err := RouterSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	t.Logf("\n%s", buf.String())
	for _, n := range routerFleetCounts {
		p99 := fmt.Sprintf("%d-fleet p99", n)
		rr := tab.Get("round-robin", p99)
		ll := tab.Get("least-loaded", p99)
		// With a stalling straggler in the replica set, sensing queue depth
		// must beat blind rotation at the tail.
		if !(ll < rr) {
			t.Errorf("%d fleets: least-loaded p99 %.3fms not better than round-robin %.3fms", n, ll, rr)
		}
		for _, row := range tab.Rows {
			if tab.Get(row, fmt.Sprintf("%d-fleet good/s", n)) <= 0 {
				t.Errorf("%s, %d fleets: no goodput", row, n)
			}
		}
	}
}
