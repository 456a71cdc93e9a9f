package sample

// seedRowsAVX2 writes l.s for the eight rows of l from their layer seeds
// and node ids, as DrawAdj seeds its generator (rows_amd64.s).
//
//go:noescape
func seedRowsAVX2(l *lanes)

// uniformRowsAVX2 draws k picks for each of the eight rows in l into
// l.picks and returns the lanes to draw again, bit i for lane i
// (rows_amd64.s). It trusts its caller for every index: call Rows.Flush,
// never this.
//
//go:noescape
func uniformRowsAVX2(l *lanes, k int) (redo int)
