package fault

// View is the shared fleet-membership view: which GPUs are alive, plus a
// generation counter bumped on every change. Collectives capture the
// generation when an attempt starts and abort when it is superseded;
// OnChange hooks let communicators and coordinators reset their wait state
// the instant a member dies. All methods run in engine context (single
// process at a time), so no locking is needed.
type View struct {
	alive    []bool
	liveN    int
	gen      int
	onChange []func()
}

// NewView returns a view with all n GPUs alive at generation 0.
func NewView(n int) *View {
	v := &View{alive: make([]bool, n), liveN: n}
	for i := range v.alive {
		v.alive[i] = true
	}
	return v
}

// N returns the fleet size (alive or dead).
func (v *View) N() int { return len(v.alive) }

// Alive reports whether GPU g is alive.
func (v *View) Alive(g int) bool { return v.alive[g] }

// Gen returns the membership generation (increments on every death).
func (v *View) Gen() int { return v.gen }

// LiveCount returns the number of live GPUs.
func (v *View) LiveCount() int { return v.liveN }

// LowestLive returns the smallest live GPU id, or -1 if none (the CCC
// leader under failover).
func (v *View) LowestLive() int {
	for g, a := range v.alive {
		if a {
			return g
		}
	}
	return -1
}

// NextLive returns the first live GPU after g in cyclic order (the fallback
// replica for requests owned by a dead GPU), or -1 if none.
func (v *View) NextLive(g int) int {
	n := len(v.alive)
	for i := 1; i <= n; i++ {
		c := (g + i) % n
		if v.alive[c] {
			return c
		}
	}
	return -1
}

// Dead returns the dead GPU ids in ascending order.
func (v *View) Dead() []int {
	out := make([]int, 0, len(v.alive)-v.liveN)
	for g, a := range v.alive {
		if !a {
			out = append(out, g)
		}
	}
	return out
}

// OnChange registers a hook called (in registration order) each time a GPU
// dies, after the view reflects the death. Hooks must not park.
func (v *View) OnChange(fn func()) {
	v.onChange = append(v.onChange, fn)
}

// Kill marks GPU g dead, bumps the generation and runs the OnChange hooks.
// Killing a dead GPU is a no-op.
func (v *View) Kill(g int) {
	if !v.alive[g] {
		return
	}
	v.alive[g] = false
	v.liveN--
	v.gen++
	for _, fn := range v.onChange {
		fn()
	}
}
