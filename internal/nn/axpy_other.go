//go:build !amd64

package nn

func axpyVec(dst, x []float32, a float32) { axpyGo(dst, x, a) }
