// Package ckpt implements periodic checkpoint/restore of training state for
// the fault-tolerance subsystem: model parameters, optimizer state and the
// (epoch, step) cursor, serialised to a small versioned binary format with a
// CRC, plus an in-memory Manager that keeps the last committed checkpoint
// and accounts the virtual-time overhead of taking it.
//
// RNG streams need no explicit state here: the training schedule derives
// every batch permutation and sampling seed as a pure function of
// (runSeed, epoch, step, rank), so restoring the cursor restores the random
// streams bit-identically.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/nn"
	"repro/internal/sim"
)

const (
	magic   = "DSPC"
	version = 1
)

// TrainState is one consistent snapshot of a BSP training job. Under BSP all
// replicas are bit-identical after every step, so rank 0's parameters and
// optimizer state describe the whole fleet.
type TrainState struct {
	// Epoch and Step are the cursor: the next batch to run is (Epoch, Step).
	Epoch, Step int
	// Seed is the run seed the schedule is derived from.
	Seed uint64
	// Model is the architecture (shape check on restore).
	Model nn.Config
	// Params is the flattened parameter vector (empty in cost-only runs).
	Params []float32
	// Optim is the flattened optimizer state.
	Optim nn.OptState
}

// Bytes returns the serialised size, which is also what the virtual-time
// charge model transfers over PCIe per checkpoint.
func (s *TrainState) Bytes() int64 {
	return int64(len(magic)) + 8*4 /* header u32s */ + 8 /* seed */ +
		4 + 4*int64(len(s.Params)) /* count + params */ +
		4 /* optim step */ + 4 + 4*int64(len(s.Optim.Data)) /* count + state */ +
		4 /* crc */
}

// Clone deep-copies the state (the Manager keeps snapshots immune to later
// in-place training updates).
func (s *TrainState) Clone() *TrainState {
	c := *s
	c.Params = append([]float32(nil), s.Params...)
	c.Optim.Data = append([]float32(nil), s.Optim.Data...)
	return &c
}

// Encode writes the state to dst in the versioned binary format: payload
// (magic, header, seed, params, optimizer state) followed by a CRC-32 of the
// payload.
func (s *TrainState) Encode(dst io.Writer) error {
	var buf bytes.Buffer
	buf.Grow(int(s.Bytes()))
	buf.WriteString(magic)
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	for _, v := range []uint32{version, uint32(s.Epoch), uint32(s.Step),
		uint32(s.Model.Arch), uint32(s.Model.InDim), uint32(s.Model.Hidden),
		uint32(s.Model.Classes), uint32(s.Model.Layers)} {
		u32(v)
	}
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], s.Seed)
	buf.Write(b8[:])
	u32(uint32(len(s.Params)))
	for _, v := range s.Params {
		u32(math.Float32bits(v))
	}
	u32(uint32(s.Optim.Step))
	u32(uint32(len(s.Optim.Data)))
	for _, v := range s.Optim.Data {
		u32(math.Float32bits(v))
	}
	u32(crc32.ChecksumIEEE(buf.Bytes()))
	_, err := dst.Write(buf.Bytes())
	return err
}

// Decode reads a state written by Encode, verifying magic, version and CRC.
func Decode(src io.Reader) (*TrainState, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(magic)+4 {
		return nil, fmt.Errorf("ckpt: truncated checkpoint (%d bytes)", len(raw))
	}
	payload, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("ckpt: CRC mismatch (file %08x, computed %08x)", got, want)
	}
	if string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", payload[:len(magic)])
	}
	r := payload[len(magic):]
	u32 := func() (uint32, error) {
		if len(r) < 4 {
			return 0, fmt.Errorf("ckpt: truncated checkpoint payload")
		}
		v := binary.LittleEndian.Uint32(r)
		r = r[4:]
		return v, nil
	}
	var hdr [8]uint32
	for i := range hdr {
		v, err := u32()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	if hdr[0] != version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", hdr[0])
	}
	s := &TrainState{
		Epoch: int(hdr[1]), Step: int(hdr[2]),
		Model: nn.Config{Arch: nn.Arch(hdr[3]), InDim: int(hdr[4]),
			Hidden: int(hdr[5]), Classes: int(hdr[6]), Layers: int(hdr[7])},
	}
	if len(r) < 8 {
		return nil, fmt.Errorf("ckpt: truncated checkpoint payload")
	}
	s.Seed = binary.LittleEndian.Uint64(r)
	r = r[8:]
	np, err := u32()
	if err != nil {
		return nil, err
	}
	if int64(np)*4 > int64(len(r)) {
		return nil, fmt.Errorf("ckpt: implausible param count %d", np)
	}
	s.Params = make([]float32, np)
	for i := range s.Params {
		v, err := u32()
		if err != nil {
			return nil, err
		}
		s.Params[i] = math.Float32frombits(v)
	}
	ot, err := u32()
	if err != nil {
		return nil, err
	}
	s.Optim.Step = int(ot)
	no, err := u32()
	if err != nil {
		return nil, err
	}
	if int64(no)*4 > int64(len(r)) {
		return nil, fmt.Errorf("ckpt: implausible optimizer state size %d", no)
	}
	if no > 0 {
		s.Optim.Data = make([]float32, no)
	}
	for i := range s.Optim.Data {
		v, err := u32()
		if err != nil {
			return nil, err
		}
		s.Optim.Data[i] = math.Float32frombits(v)
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after payload", len(r))
	}
	return s, nil
}

// SaveFile writes the state to path atomically (tmp + rename).
func (s *TrainState) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a state written by SaveFile.
func LoadFile(path string) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Stats accounts checkpointing work for overhead reporting.
type Stats struct {
	// Checkpoints is the number of committed checkpoints.
	Checkpoints int
	// Bytes is the total serialised bytes committed.
	Bytes int64
	// Overhead is the virtual time spent writing checkpoints.
	Overhead sim.Time
}

// OverheadPercent returns checkpoint overhead as a percentage of total
// virtual training time.
func (st Stats) OverheadPercent(total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(st.Overhead) / float64(total)
}

// Manager keeps the last committed checkpoint in memory (the survivable copy
// a real system would push to host RAM or remote storage) and optionally
// mirrors it to a file. Commit order matters for crash consistency: the
// caller captures state, charges the virtual write time, and only then
// commits — a crash mid-write recovers from the previous checkpoint.
type Manager struct {
	// EverySteps is the checkpoint cadence in steps (0 = epoch boundaries
	// only).
	EverySteps int
	// Path, when non-empty, mirrors every committed checkpoint to this file.
	Path string

	last  *TrainState
	stats Stats
}

// SegmentEnd returns the step at which the segment starting at from should
// end: the next checkpoint boundary or the epoch end.
func (m *Manager) SegmentEnd(from, stepsPerEpoch int) int {
	if m.EverySteps <= 0 {
		return stepsPerEpoch
	}
	to := ((from / m.EverySteps) + 1) * m.EverySteps
	if to > stepsPerEpoch {
		to = stepsPerEpoch
	}
	return to
}

// Commit installs st as the last good checkpoint, charging dur of virtual
// write time to the stats and mirroring to Path if configured.
func (m *Manager) Commit(st *TrainState, dur sim.Time) error {
	m.last = st.Clone()
	m.stats.Checkpoints++
	m.stats.Bytes += st.Bytes()
	m.stats.Overhead += dur
	if m.Path != "" {
		return m.last.SaveFile(m.Path)
	}
	return nil
}

// Last returns the most recent committed checkpoint (nil before the first
// commit).
func (m *Manager) Last() *TrainState { return m.last }

// Stats returns the accumulated checkpoint accounting.
func (m *Manager) Stats() Stats { return m.stats }

// WriteCost models the virtual time to commit a checkpoint: a device-to-host
// DMA of the serialised bytes over PCIe at streaming bandwidth plus one
// latency, matching the Fabric.HostDMA cost model.
func WriteCost(bytes int64, pcieBandwidth, pcieLatency float64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	return sim.Time(float64(bytes)/pcieBandwidth) + sim.Time(pcieLatency)
}
