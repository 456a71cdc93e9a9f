package hw

import "fmt"

// LinkType classifies a fabric edge for routing and byte accounting.
type LinkType int

const (
	// NVLinkLink is a direct GPU-GPU NVLink connection.
	NVLinkLink LinkType = iota
	// PCIeLink is a GPU's path to host memory through its PCIe switch.
	PCIeLink
)

// Link is a physical connection in the server topology.
type Link struct {
	Type LinkType
	// A, B are GPU ids for NVLink; for PCIe, A is the switch id and B is -1.
	A, B int
	// Lanes is the number of parallel NVLink connections bonded between
	// the pair (the DGX-1 mesh doubles some edges).
	Lanes int
	// Bandwidth is bytes/second per lane (one direction).
	Bandwidth float64
	// Latency is the per-message propagation cost.
	Latency float64 // seconds
}

// Topology is a static description of the server fabric.
type Topology struct {
	NumGPUs int
	// Links holds NVLink edges. Index into it via nvIndex.
	Links []Link
	// SwitchOf maps each GPU to its PCIe switch.
	SwitchOf []int
	// NumSwitches is the PCIe switch count.
	NumSwitches int
	// PCIeBandwidth is bytes/second of one switch's host uplink, shared by
	// the GPUs behind it.
	PCIeBandwidth float64
	// PCIeLatency is the per-message PCIe cost.
	PCIeLatency float64
	// nvIndex[a][b] is the index into Links of the a-b NVLink, or -1.
	nvIndex [][]int
	// nextHop[a][b] is the next GPU on the (possibly multi-hop) NVLink
	// route from a to b, or -1 if unreachable.
	nextHop [][]int
}

// NVLink bandwidth per lane per direction for NVLink 2.0 (V100): 25 GB/s.
const nvlinkLaneBandwidth = 25e9

// DGX1 builds the hybrid-cube-mesh topology of an 8-GPU DGX-1/p3.16xlarge
// restricted to the first n GPUs (1 <= n <= 8). Aggregate bandwidths match
// Table 1 of the paper: PCIe 32/32/64/128 GB/s and NVLink 0/100/400/1200
// GB/s for 1/2/4/8 GPUs.
func DGX1(n int) *Topology {
	if n < 1 || n > 8 {
		panic(fmt.Sprintf("hw: DGX1 supports 1-8 GPUs, got %d", n))
	}
	// Lane counts of the DGX-1V hybrid cube mesh. Each GPU has 6 lanes:
	// quad {0,1,2,3}: 0-1 x2, 2-3 x2, 0-2, 0-3, 1-2, 1-3 (8 lanes)
	// quad {4,5,6,7}: mirrored (8 lanes)
	// cross links 0-4, 1-5, 2-6, 3-7 x2 each (8 lanes) => 24 lanes total.
	type edge struct{ a, b, lanes int }
	full := []edge{
		{0, 1, 2}, {2, 3, 2}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}, {1, 3, 1},
		{4, 5, 2}, {6, 7, 2}, {4, 6, 1}, {4, 7, 1}, {5, 6, 1}, {5, 7, 1},
		{0, 4, 2}, {1, 5, 2}, {2, 6, 2}, {3, 7, 2},
	}
	t := &Topology{
		NumGPUs:       n,
		NumSwitches:   4,
		PCIeBandwidth: 32e9,
		PCIeLatency:   5e-6,
		SwitchOf:      make([]int, n),
	}
	for g := 0; g < n; g++ {
		t.SwitchOf[g] = g / 2
	}
	for _, e := range full {
		if e.a < n && e.b < n {
			t.Links = append(t.Links, Link{
				Type: NVLinkLink, A: e.a, B: e.b, Lanes: e.lanes,
				Bandwidth: nvlinkLaneBandwidth, Latency: 1.5e-6,
			})
		}
	}
	t.buildRouting()
	return t
}

// buildRouting precomputes NVLink indices and BFS next-hop tables with a
// deterministic tie-break (lower-numbered neighbour first).
func (t *Topology) buildRouting() {
	n := t.NumGPUs
	t.nvIndex = make([][]int, n)
	adj := make([][]int, n)
	for i := range t.nvIndex {
		t.nvIndex[i] = make([]int, n)
		for j := range t.nvIndex[i] {
			t.nvIndex[i][j] = -1
		}
	}
	for i, l := range t.Links {
		t.nvIndex[l.A][l.B] = i
		t.nvIndex[l.B][l.A] = i
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for i := range adj {
		sortInts(adj[i])
	}
	t.nextHop = make([][]int, n)
	for src := 0; src < n; src++ {
		t.nextHop[src] = make([]int, n)
		dist := make([]int, n)
		for i := range dist {
			t.nextHop[src][i] = -1
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		parent := make([]int, n)
		parent[src] = src
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || dist[dst] < 0 {
				continue
			}
			// Walk back from dst to find the first hop out of src.
			hop := dst
			for parent[hop] != src {
				hop = parent[hop]
			}
			t.nextHop[src][dst] = hop
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NVLinkIndex returns the Links index of the direct a-b NVLink, or -1.
func (t *Topology) NVLinkIndex(a, b int) int {
	if a == b {
		return -1
	}
	return t.nvIndex[a][b]
}

// Route returns the sequence of GPUs on the NVLink path from src to dst
// (excluding src, including dst), or nil if no NVLink path exists.
func (t *Topology) Route(src, dst int) []int {
	if src == dst {
		return nil
	}
	var path []int
	cur := src
	for cur != dst {
		next := t.nextHop[cur][dst]
		if next < 0 {
			return nil
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// AggregateNVLinkBandwidth returns the total bidirectional NVLink bandwidth
// in bytes/second across all links (the Table 1 accounting: lanes x 25 GB/s
// x 2 directions).
func (t *Topology) AggregateNVLinkBandwidth() float64 {
	var total float64
	for _, l := range t.Links {
		total += 2 * float64(float64(l.Lanes)*l.Bandwidth)
	}
	return total
}

// AggregatePCIeBandwidth returns the total host-uplink PCIe bandwidth of the
// switches that have at least one of the first NumGPUs GPUs behind them.
func (t *Topology) AggregatePCIeBandwidth() float64 {
	used := map[int]bool{}
	for _, sw := range t.SwitchOf {
		used[sw] = true
	}
	return float64(len(used)) * t.PCIeBandwidth
}
