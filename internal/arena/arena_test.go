package arena

import "testing"

// TestArenaGetZeroesDirtyBuffers: a recycled buffer comes back zeroed over
// its whole new length, exactly like make — including the part beyond the
// previous user's length.
func TestArenaGetZeroesDirtyBuffers(t *testing.T) {
	var p Pool
	b := p.Get(100)
	for i := range b {
		b[i] = float32(i + 1)
	}
	p.Put(b[:10]) // the owner may have resliced; capacity is what recycles
	got := p.Get(120)
	if &got[0] != &b[0] {
		t.Fatal("Get did not reuse the pooled buffer")
	}
	if len(got) != 120 {
		t.Fatalf("len = %d, want 120", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled buffer dirty at %d: %g", i, v)
		}
	}
}

// TestArenaGetNoZeroKeepsContents: GetNoZero reuses a pooled buffer as Get
// does but leaves its contents as the last holder wrote them, and a fresh
// one is zeroed by make.
func TestArenaGetNoZeroKeepsContents(t *testing.T) {
	var p Pool
	if b := p.GetNoZero(50); len(b) != 50 || b[0] != 0 || b[49] != 0 {
		t.Fatalf("fresh buffer: len %d, ends %g %g", len(b), b[0], b[len(b)-1])
	} else {
		for i := range b {
			b[i] = float32(i + 1)
		}
		p.Put(b)
		got := p.GetNoZero(40)
		if &got[0] != &b[0] || len(got) != 40 {
			t.Fatal("GetNoZero did not reuse the pooled buffer")
		}
		for i, v := range got {
			if v != float32(i+1) {
				t.Fatalf("recycled buffer cleared at %d: %g", i, v)
			}
		}
	}
}

// TestArenaCapacityClassRounding: a fresh buffer's capacity is the next
// power of two at or above the request, so it returns to the class a later
// request of the same size searches first.
func TestArenaCapacityClassRounding(t *testing.T) {
	for _, tc := range []struct{ n, wantCap int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {100, 128}, {128, 128}, {129, 256}, {1000, 1024},
	} {
		var p Pool
		b := p.Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.wantCap)
		}
		p.Put(b)
		if again := p.Get(tc.n); &again[0] != &b[0] {
			t.Errorf("Get(%d) after Put allocated instead of reusing", tc.n)
		}
	}
}

// TestArenaZeroLength: n == 0 yields nil and nil (or zero-capacity) buffers
// are never pooled.
func TestArenaZeroLength(t *testing.T) {
	var p Pool
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	p.Put(nil)
	p.Put([]float32{})
	for k, bucket := range p.buckets {
		if len(bucket) != 0 {
			t.Fatalf("class %d holds %d buffers after putting only empty ones", k, len(bucket))
		}
	}
}

// TestArenaLargerBufferServesSmallerRequest: with the request's own class
// empty, a pooled buffer of a higher class serves it, and on Put goes back
// to its own class (by capacity), not the request's.
func TestArenaLargerBufferServesSmallerRequest(t *testing.T) {
	var p Pool
	big := p.Get(1000) // capacity 1024, class 10
	p.Put(big)
	small := p.Get(10) // class 4 is empty; the scan reaches class 10
	if &small[0] != &big[0] || len(small) != 10 || cap(small) != 1024 {
		t.Fatalf("Get(10) = len %d cap %d (reused %v), want the pooled 1024-capacity buffer",
			len(small), cap(small), &small[0] == &big[0])
	}
	p.Put(small)
	if n := len(p.buckets[sizeClass(1024)]); n != 1 {
		t.Fatalf("class of capacity 1024 holds %d buffers, want 1", n)
	}
	if n := len(p.buckets[sizeClass(16)]); n != 0 {
		t.Fatalf("class of capacity 16 holds %d buffers, want 0", n)
	}
	// A non-power-of-two capacity (not made by Get) files under the largest
	// class it can fully serve: floor(log2 cap).
	p = Pool{}
	p.Put(make([]float32, 0, 100)) // class 6 (64 <= 100 < 128)
	if b := p.Get(100); cap(b) == 100 {
		t.Fatal("Get(100) took a class-6 buffer, which need only hold 64")
	}
	if b := p.Get(64); cap(b) != 100 {
		t.Fatalf("Get(64) cap = %d, want the pooled 100-capacity buffer", cap(b))
	}
}
