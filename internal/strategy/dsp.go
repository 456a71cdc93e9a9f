package strategy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/train"
)

// DSP is the paper's execution strategy: local cache hits via a gather
// kernel, remote hot rows via all-to-all over NVLink, cold rows via UVA (in
// parallel on different links), then the standard data-parallel step. On a
// machine of a multi-machine cluster the cold rows are sharded across the
// machines' CPU memories by node id (paper §3.2): a row owned by another
// machine costs a NIC round trip plus the owner's CPU gather.
type DSP struct {
	replica
	Cache *cache.Manager
	Host  *store.Store // out-of-core host tier (nil unless Opts.OOC)

	// deferTiers leaves committing Loaded.Tiers to the caller (serving
	// commits once a round survives its collective attempts); otherwise
	// Load commits at split time.
	deferTiers bool

	// tables[rank] is the free list of rank's Load count tables.
	tables [][]*loadTables
}

// loadTables is one Load's count tables: the manager's Tally counts, the
// request and reply counts the two all-to-alls send, and the table both
// receive into. Loader instances on one rank run concurrently, so each Load
// takes a set off its rank's free list and puts it back when it returns; a
// Load unwound by an aborted round drops its set, as the round drops its
// batch.
type loadTables struct {
	split, reqs, replies, in []int
}

// takeTables returns a free set of count tables for rank on n GPUs.
func (s *DSP) takeTables(rank, n int) *loadTables {
	if s.tables == nil {
		s.tables = make([][]*loadTables, n)
	}
	if k := len(s.tables[rank]); k > 0 {
		t := s.tables[rank][k-1]
		s.tables[rank] = s.tables[rank][:k-1]
		return t
	}
	return &loadTables{split: make([]int, n+1), reqs: make([]int, n), replies: make([]int, n), in: make([]int, n)}
}

// Kind implements ExecutionStrategy.
func (s *DSP) Kind() Kind { return KindDSP }

// Load implements ExecutionStrategy: fetch features for the sampled batch —
// local cache hits via a gather kernel, remote hot rows via all-to-all over
// NVLink, cold rows via UVA and (in a cluster) the NIC — the paths run in
// parallel on different links, as in the paper.
func (s *DSP) Load(p *sim.Proc, rank int, mb *sample.MiniBatch, lc *comm.Communicator) Loaded {
	d := s.Opts.Data
	eng := s.M.Eng
	dev := s.M.GPUs[rank]
	ids := mb.InputNodes()
	feats, gather := s.stage(mb)
	n := lc.N
	t := s.takeTables(rank, n)
	// The manager's Tally records row hotness for the epoch-boundary
	// rebalancer and re-routes dead-holder rows to the host tier. Every
	// path is charged by row counts; only the out-of-core tier and a
	// cluster's owner split read which rows are cold.
	host := s.Cache.Tally(ids, rank, t.split, s.Host != nil || s.clustered())
	tiers := cache.TallyTiers(t.split, rank)
	if !s.deferTiers {
		s.Cache.Account(rank, tiers)
	}

	// Feature tier of the frontier walk: the split names exactly the
	// host-tier rows the UVA side path is about to read — prefetch their
	// blocks now (MaxInflight-way parallel, non-blocking) so the spill reads
	// overlap the NVLink path instead of serialising in the toucher.
	if s.Host != nil && len(host) > 0 {
		s.Host.PrefetchFeatures(host)
	}

	// Cold rows this machine's CPU memory holds, via UVA, concurrently with
	// the NVLink path.
	mine, foreign := s.coldOwners(t.split[n], host)
	var uvaDone *sim.Event
	if mine > 0 {
		uvaDone = eng.NewEvent()
		eng.Go(fmt.Sprintf("gpu%d/uva", rank), func(cp *sim.Proc) {
			// Host rows must be cache-resident before UVA can read them:
			// the out-of-core tier stalls this side path (not the NVLink
			// path) on any spill-device fetch.
			if s.Host != nil {
				s.Host.TouchFeatures(cp, host)
			}
			dev.UVARead(cp, s.M.Fabric, mine, d.RowBytes(), hw.TrafficFeature)
			uvaDone.Trigger()
		})
	}
	// Cold rows other machines hold, also concurrently.
	var netDone *sim.Event
	if foreign != nil {
		netDone = eng.NewEvent()
		eng.Go(fmt.Sprintf("gpu%d/net", rank), func(cp *sim.Proc) {
			c, me := s.M.Cluster, s.M.Index
			for o, cnt := range foreign {
				if cnt == 0 {
					continue
				}
				// Request ids out, owner CPU gathers, rows come back (under
				// the feature codec when one is set — the NIC is the
				// narrowest link, so compression pays off most here), then
				// a staged DMA of the decoded rows into the GPU.
				c.Net.Send(cp, me, o, cnt*4, hw.TrafficFeature)
				c.Machines[o].Host.Gather(cp, cnt*int64(d.RowBytes()), 8)
				c.Net.Send(cp, o, me,
					compress.WireBytes(s.Opts.FeatCodec, int(cnt)*d.FeatDim), hw.TrafficFeature)
				s.M.Fabric.HostDMA(cp, rank, cnt*int64(d.RowBytes()), hw.TrafficFeature)
			}
			netDone.Trigger()
		})
	}

	// Local cache hits: one gather kernel.
	if local := t.split[rank]; local > 0 {
		dev.RunKernel(p, hw.KernelGather, int64(local)*int64(d.RowBytes()))
	}

	// Remote hot rows: request ids, owners gather, rows come back. Both are
	// modelled (real-compute rows are assembled on the host by stage), so
	// only their element counts move, the reply priced under the feature
	// codec.
	if n > 1 {
		copy(t.reqs, t.split[:n])
		t.reqs[rank] = 0
		reqIn := comm.AllToAllCounts(lc, p, rank, t.reqs, t.in, comm.Raw(4, hw.TrafficFeature))
		var served int64
		for q := 0; q < n; q++ {
			served += int64(reqIn[q])
			t.replies[q] = reqIn[q] * d.FeatDim
		}
		if served > 0 {
			dev.RunKernel(p, hw.KernelGather, served*int64(d.RowBytes()))
		}
		comm.AllToAllCounts(lc, p, rank, t.replies, t.in, comm.Compressed(s.Opts.FeatCodec, hw.TrafficFeature))
	}

	if uvaDone != nil {
		uvaDone.Wait(p)
	}
	if netDone != nil {
		netDone.Wait(p)
	}
	// Assemble the contiguous input-feature buffer.
	dev.RunKernel(p, hw.KernelGather, int64(len(ids))*int64(d.RowBytes()))
	gather.Join()
	s.tables[rank] = append(s.tables[rank], t)
	return Loaded{MB: mb, Feats: feats, Tiers: tiers}
}

// clustered reports whether this machine belongs to a cluster of several,
// whose CPU memories shard the cold rows.
func (s *DSP) clustered() bool {
	c := s.M.Cluster
	return c != nil && len(c.Machines) > 1
}

// coldOwners splits the cold rows by owning machine: mine counts the rows
// this machine's CPU memory holds and foreign[o] the rows machine o holds
// (nil when there are none). Outside a cluster of several, all cold rows
// are this machine's and host is not read.
func (s *DSP) coldOwners(cold int, host []graph.NodeID) (mine int64, foreign []int64) {
	if !s.clustered() {
		return int64(cold), nil
	}
	c := s.M.Cluster
	for _, v := range host {
		if o := int(v) % len(c.Machines); o == s.M.Index {
			mine++
		} else {
			if foreign == nil {
				foreign = make([]int64, len(c.Machines))
			}
			foreign[o]++
		}
	}
	return mine, foreign
}

// Infer implements ExecutionStrategy: the full forward pass.
func (s *DSP) Infer(p *sim.Proc, rank int, l Loaded) []int32 {
	return s.infer(p, rank, l, 0)
}

// Train implements ExecutionStrategy: the standard data-parallel step.
func (s *DSP) Train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats) {
	s.train(p, rank, l, st, s.Opts.GradOpts(), 0)
}

// Count implements ExecutionStrategy: nothing of its own to add.
func (s *DSP) Count(*train.Counters) {}
