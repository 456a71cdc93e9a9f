package ckpt

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/nn"
)

func sampleState() *TrainState {
	cfg := nn.Config{Arch: nn.SAGE, InDim: 16, Hidden: 8, Classes: 4, Layers: 2}
	m := nn.NewModel(cfg, 42)
	params := make([]float32, m.ParamCount())
	m.ParamVector(params)
	opt := nn.NewAdam(1e-3)
	for i := range m.Params {
		for j := range m.Params[i].G.Data {
			m.Params[i].G.Data[j] = float32(i+j) * 1e-3
		}
	}
	opt.Step(m)
	return &TrainState{
		Epoch: 3, Step: 17, Seed: 0xDEADBEEF, Model: cfg,
		Params: params, Optim: opt.CaptureState(),
	}
}

func TestEncodeDecodeBitIdentical(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if int64(buf.Len()) != s.Bytes() {
		t.Fatalf("encoded %d bytes, Bytes() says %d", buf.Len(), s.Bytes())
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", s, got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw := buf.Bytes()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(bytes.NewReader(flipped)); err == nil {
		t.Fatalf("decode accepted a corrupted payload")
	}
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Fatalf("decode accepted a truncated payload")
	}
	bad := append([]byte(nil), raw...)
	copy(bad, "DSPM") // wrong magic: CRC then mismatches too, but try magic-only corruption
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatalf("decode accepted a bad magic")
	}
}

func TestSaveLoadFile(t *testing.T) {
	full := sampleState()
	// What dsptrain -save writes: the parameters alone — cursor zero, no
	// optimizer state.
	paramsOnly := &TrainState{Seed: full.Seed, Model: full.Model, Params: full.Params}
	for name, s := range map[string]*TrainState{"full": full, "params-only": paramsOnly} {
		path := filepath.Join(t.TempDir(), "state.dspc")
		if err := s.SaveFile(path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("%s: file round trip mismatch:\n  in  %+v\n  out %+v", name, s, got)
		}
		// Loaded into a differently-initialised model (dsptrain -load), the
		// parameters are the saved model's, bit for bit.
		m := nn.NewModel(got.Model, 7)
		m.SetParamVector(got.Params)
		back := make([]float32, m.ParamCount())
		m.ParamVector(back)
		if !reflect.DeepEqual(back, s.Params) {
			t.Fatalf("%s: parameters changed through SetParamVector", name)
		}
	}
}

func TestOptimizerRestoreResumesIdentically(t *testing.T) {
	cfg := nn.Config{Arch: nn.SAGE, InDim: 8, Hidden: 4, Classes: 3, Layers: 2}
	grad := func(m *nn.Model, k int) {
		for i := range m.Params {
			for j := range m.Params[i].G.Data {
				m.Params[i].G.Data[j] = float32((i+j+k)%7) * 1e-3
			}
		}
	}
	// Reference: 4 uninterrupted Adam steps.
	ref := nn.NewModel(cfg, 9)
	refOpt := nn.NewAdam(1e-3)
	for k := 0; k < 4; k++ {
		grad(ref, k)
		refOpt.Step(ref)
	}
	// Checkpoint after 2 steps, restore into a fresh model+optimizer, resume.
	m1 := nn.NewModel(cfg, 9)
	o1 := nn.NewAdam(1e-3)
	for k := 0; k < 2; k++ {
		grad(m1, k)
		o1.Step(m1)
	}
	params := make([]float32, m1.ParamCount())
	m1.ParamVector(params)
	st := &TrainState{Model: cfg, Params: params, Optim: o1.CaptureState()}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	m2 := nn.NewModel(cfg, 777) // different init; fully overwritten by restore
	m2.SetParamVector(back.Params)
	o2 := nn.NewAdam(1e-3)
	o2.RestoreState(m2, back.Optim)
	for k := 2; k < 4; k++ {
		grad(m2, k)
		o2.Step(m2)
	}
	want := make([]float32, ref.ParamCount())
	got := make([]float32, m2.ParamCount())
	ref.ParamVector(want)
	m2.ParamVector(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("param %d differs after resume: %g vs %g (resume must be bit-identical)", i, want[i], got[i])
		}
	}
}

func TestManagerCadence(t *testing.T) {
	m := &Manager{EverySteps: 10}
	if got := m.SegmentEnd(0, 25); got != 10 {
		t.Fatalf("SegmentEnd(0) = %d, want 10", got)
	}
	if got := m.SegmentEnd(10, 25); got != 20 {
		t.Fatalf("SegmentEnd(10) = %d, want 20", got)
	}
	if got := m.SegmentEnd(20, 25); got != 25 {
		t.Fatalf("SegmentEnd(20) = %d, want 25 (clamped to epoch end)", got)
	}
	whole := &Manager{}
	if got := whole.SegmentEnd(0, 25); got != 25 {
		t.Fatalf("epoch-boundary manager SegmentEnd = %d, want 25", got)
	}
	s := sampleState()
	if err := m.Commit(s, 0.25); err != nil {
		t.Fatalf("commit: %v", err)
	}
	s.Params[0] = 1e9 // mutating the source must not affect the stored copy
	if m.Last().Params[0] == 1e9 {
		t.Fatalf("manager stored a shallow copy")
	}
	st := m.Stats()
	if st.Checkpoints != 1 || st.Bytes != s.Bytes() || st.Overhead != 0.25 {
		t.Fatalf("stats = %+v", st)
	}
	if pct := st.OverheadPercent(25); pct != 1 {
		t.Fatalf("overhead%% = %g, want 1", pct)
	}
}
