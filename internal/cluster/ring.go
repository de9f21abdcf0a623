// Package cluster simulates the paper's multi-GPU data-parallel training:
// worker goroutines stand in for GPU ranks, exchanging gradient chunks
// over a pluggable Transport with a real ring-allreduce (scatter-reduce +
// allgather, the Horovod algorithm), while a cost model accounts wire
// bytes and modeled transfer time on the paper's 25 GB/s RoCE
// interconnect.  The default transport moves chunks over in-process
// channels; internal/cluster/tcptransport runs the same schedule over real
// TCP sockets with deadlines, reconnects and a heartbeat failure detector.
//
// The central scalability property being reproduced (Section 3.3): FEKF
// allreduces only the reduced gradient g and the scalar ABE, never the
// error-covariance blocks P — averaging g and ABE keeps every rank's P
// replica bit-identical, so P communication is eliminated entirely,
// whereas the fusiform Naive-EKF would ship O((r−1)·N·N_b) covariance
// bytes per iteration.
package cluster

import (
	"fmt"
	"sync/atomic"
)

// Interconnect models the cluster fabric.
type Interconnect struct {
	// BytesPerNs is the link bandwidth (paper: 25 GB/s RoCE = 25 B/ns).
	BytesPerNs float64
	// StepLatencyNs is the per-message latency of one ring step.
	StepLatencyNs float64
}

// RoCE25 returns the paper's interconnect model.
func RoCE25() Interconnect { return Interconnect{BytesPerNs: 25, StepLatencyNs: 5000} }

// ringScratch is one rank's reusable collective workspace: the chunk
// bounds table and the outgoing copy buffer.  Reusing them across
// collectives keeps the per-step scalar exchange (ABE + counts) off the
// allocator entirely; the barrier after every ring step guarantees the
// receiver has consumed the previous buffer before it is overwritten, so
// the reduction stays bitwise identical to the allocate-per-call schedule.
type ringScratch struct {
	bounds [][2]int
	buf    []float64
}

// Ring is an allreduce communicator over r ranks.  It owns the collective
// schedule and the modeled RoCE accounting; message delivery, timeouts and
// failure detection belong to the Transport.
type Ring struct {
	size  int
	model Interconnect
	tr    Transport

	wireBytes atomic.Int64
	// modeled transfer picoseconds accumulated over all operations
	modeledPs atomic.Int64
	// ops counts completed collective operations (one per Allreduce,
	// regardless of rank count); the pipeline accounting tests assert it
	// is identical with overlap on and off (no double-charged stages).
	ops atomic.Int64

	scratch []ringScratch
}

// NewRing creates a communicator for size ranks over the in-process
// channel transport.
func NewRing(size int, model Interconnect) *Ring {
	return NewRingOver(NewChanTransport(size), model)
}

// NewRingOver creates a communicator running the ring schedule over an
// arbitrary transport (in-process channels, TCP loopback, a fault-
// injecting wrapper, ...).  The modeled accounting is transport-
// independent: it charges the paper's interconnect regardless of what the
// bytes actually crossed.
func NewRingOver(tr Transport, model Interconnect) *Ring {
	size := tr.Size()
	if size < 1 {
		panic("cluster: ring size must be >= 1")
	}
	return &Ring{
		size:    size,
		model:   model,
		tr:      tr,
		scratch: make([]ringScratch, size),
	}
}

// Size returns the number of ranks.
func (r *Ring) Size() int { return r.size }

// Transport exposes the underlying transport (stats, fault injection).
func (r *Ring) Transport() Transport { return r.tr }

// TransportStats returns the transport's measured traffic counters.
func (r *Ring) TransportStats() TransportStats { return r.tr.Stats() }

// Close releases the transport's resources (sockets, goroutines).
func (r *Ring) Close() error { return r.tr.Close() }

// WireBytes returns the total payload bytes that crossed the (modeled)
// fabric.  The transport's own Stats counts what was measured on the real
// wire, including framing.
func (r *Ring) WireBytes() int64 { return r.wireBytes.Load() }

// ModeledNs returns the modeled cumulative communication time of the
// busiest path (per-rank serialized steps).
func (r *Ring) ModeledNs() float64 { return float64(r.modeledPs.Load()) / 1000 }

// Ops returns the number of collective operations executed (each
// Allreduce counts once, even at ring size 1 where it is communication-
// free).  Overlapping collectives with compute must not change it.
func (r *Ring) Ops() int64 { return r.ops.Load() }

// send transfers a chunk to the next rank and accounts it.
func (r *Ring) send(rank int, chunk []float64) error {
	r.wireBytes.Add(int64(len(chunk)) * 8)
	return r.tr.Send(rank, chunk)
}

// accountStep charges the modeled time of one ring step (all ranks move a
// chunk concurrently, so the step costs one chunk transfer plus latency).
func (r *Ring) accountStep(chunkBytes int64) {
	ns := r.model.StepLatencyNs
	if r.model.BytesPerNs > 0 {
		ns += float64(chunkBytes) / r.model.BytesPerNs
	}
	r.modeledPs.Add(int64(ns * 1000))
}

// Allreduce sums data element-wise across all ranks, in place, using the
// ring scatter-reduce + allgather schedule.  Every rank must call it with
// an equal-length slice; the call blocks until the collective completes.
// A non-nil error wraps ErrRingBroken: the ring died mid-collective, data
// is in an unspecified partial state, and the caller must not apply it.
func (r *Ring) Allreduce(rank int, data []float64) error {
	if rank == 0 {
		r.ops.Add(1)
	}
	if r.size == 1 {
		return nil
	}
	n := len(data)
	sc := &r.scratch[rank]
	if cap(sc.bounds) < r.size {
		sc.bounds = make([][2]int, r.size)
	}
	bounds := sc.bounds[:r.size]
	maxChunk := 0
	for c := 0; c < r.size; c++ {
		lo := c * n / r.size
		hi := (c + 1) * n / r.size
		bounds[c] = [2]int{lo, hi}
		if hi-lo > maxChunk {
			maxChunk = hi - lo
		}
	}
	if cap(sc.buf) < maxChunk {
		sc.buf = make([]float64, maxChunk)
	}
	// Every ring step moves all size chunks concurrently (one per rank), so
	// the step's modeled duration is governed by the largest chunk in
	// flight, not by whichever chunk rank 0 happens to move.
	maxChunkBytes := int64(maxChunk) * 8
	chunkOf := func(c int) []float64 {
		return data[bounds[c][0]:bounds[c][1]]
	}

	// scatter-reduce: after step s, rank i holds the running sum of chunk
	// (i-s-1 mod size) from s+2 ranks.
	for s := 0; s < r.size-1; s++ {
		sendIdx := mod(rank-s, r.size)
		out := chunkOf(sendIdx)
		buf := sc.buf[:len(out)]
		copy(buf, out)
		if err := r.send(rank, buf); err != nil {
			return err
		}
		in, err := r.tr.Recv(rank)
		if err != nil {
			return err
		}
		recvIdx := mod(rank-s-1, r.size)
		dst := chunkOf(recvIdx)
		if len(in) != len(dst) {
			panic(fmt.Sprintf("cluster: chunk size mismatch %d vs %d", len(in), len(dst)))
		}
		for k, v := range in {
			dst[k] += v
		}
		if rank == 0 {
			r.accountStep(maxChunkBytes)
		}
		if err := r.tr.Barrier(rank); err != nil {
			return err
		}
	}

	// allgather: circulate the fully reduced chunks.
	for s := 0; s < r.size-1; s++ {
		sendIdx := mod(rank+1-s, r.size)
		out := chunkOf(sendIdx)
		buf := sc.buf[:len(out)]
		copy(buf, out)
		if err := r.send(rank, buf); err != nil {
			return err
		}
		in, err := r.tr.Recv(rank)
		if err != nil {
			return err
		}
		recvIdx := mod(rank-s, r.size)
		copy(chunkOf(recvIdx), in)
		if rank == 0 {
			r.accountStep(maxChunkBytes)
		}
		if err := r.tr.Barrier(rank); err != nil {
			return err
		}
	}
	return nil
}

// AllreduceScalars sums a small fixed set of scalars across ranks (the ABE
// and sample-count exchange, the O(#GPUs) term of the paper's
// communication analysis).  It rides the reusable per-rank scratch, so the
// per-step scalar hot path is allocation-free after warm-up.
func (r *Ring) AllreduceScalars(rank int, vals []float64) error {
	return r.Allreduce(rank, vals)
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
