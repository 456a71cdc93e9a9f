package nn

// axpyVec is axpy's body in SSE2 assembly (axpy_amd64.s). It trusts its
// caller for len(x) >= len(dst): call axpy, never this.
//
//go:noescape
func axpyVec(dst, x []float32, a float32)
