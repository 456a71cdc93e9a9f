//go:build !amd64

package sample

// The AVX2 body exists only on amd64, and useAVX2 is never set elsewhere.

func seedRowsAVX2(l *lanes) {
	panic("sample: no AVX2 body off amd64")
}

func uniformRowsAVX2(l *lanes, k int) (redo int) {
	panic("sample: no AVX2 body off amd64")
}
