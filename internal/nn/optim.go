package nn

import "math"

// OptState is a flattened Adam-state snapshot for checkpointing: the first
// moments then the second, each concatenating per-parameter slices in
// Model.Params order, so a state restored into an identically-shaped model
// resumes bit-identically. Empty Data means "never stepped".
type OptState struct {
	// Step is Adam's bias-correction step count.
	Step int
	// Data holds the moment vectors.
	Data []float32
}

// flatten concatenates per-parameter state vectors.
func flatten(vecs [][]float32) []float32 {
	n := 0
	for _, v := range vecs {
		n += len(v)
	}
	out := make([]float32, 0, n)
	for _, v := range vecs {
		out = append(out, v...)
	}
	return out
}

// unflatten splits buf back into per-parameter vectors shaped like m.
func unflatten(m *Model, buf []float32) [][]float32 {
	out := make([][]float32, len(m.Params))
	i := 0
	for pi, p := range m.Params {
		n := len(p.W.Data)
		out[pi] = append([]float32(nil), buf[i:i+n]...)
		i += n
	}
	if i != len(buf) {
		panic("nn: optimizer state size does not match model")
	}
	return out
}

// Adam is the Adam optimizer with bias correction, the one optimizer every
// training path builds.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m1, m2                [][]float32
}

// NewAdam creates an Adam optimizer with standard defaults for unset betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies the current gradients (already averaged across replicas) and
// advances the optimizer state.
func (o *Adam) Step(m *Model) {
	if o.m1 == nil {
		o.m1 = make([][]float32, len(m.Params))
		o.m2 = make([][]float32, len(m.Params))
		for i, p := range m.Params {
			o.m1[i] = make([]float32, len(p.W.Data))
			o.m2[i] = make([]float32, len(p.W.Data))
		}
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
	for i, p := range m.Params {
		m1, m2 := o.m1[i], o.m2[i]
		for j := range p.W.Data {
			g := p.G.Data[j]
			m1[j] = float32(b1*m1[j]) + float32((1-b1)*g)
			m2[j] = float32(b2*m2[j]) + float32((1-b2)*g*g)
			mh := float64(m1[j]) / c1
			vh := float64(m2[j]) / c2
			p.W.Data[j] -= float32(o.LR * mh / (math.Sqrt(vh) + o.Eps))
		}
	}
}

// CaptureState snapshots the optimizer state as a deep copy: the step count
// plus first and second moments, concatenated (empty until the first step).
func (o *Adam) CaptureState() OptState {
	if o.m1 == nil {
		return OptState{Step: o.t}
	}
	return OptState{Step: o.t, Data: append(flatten(o.m1), flatten(o.m2)...)}
}

// RestoreState replaces the optimizer state. m provides the parameter
// shapes; st must come from an optimizer over an identical model.
func (o *Adam) RestoreState(m *Model, st OptState) {
	o.t = st.Step
	if len(st.Data) == 0 {
		o.m1, o.m2 = nil, nil
		return
	}
	half := len(st.Data) / 2
	o.m1 = unflatten(m, st.Data[:half])
	o.m2 = unflatten(m, st.Data[half:])
}
