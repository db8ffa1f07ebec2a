// Package pcie models the SmartNIC↔host communication path of §2.2.5:
// DMA engines issuing blocking and non-blocking reads/writes over PCIe
// Gen3 x8 and scatter-gather aggregation. Off-path cards' one-sided
// RDMA verbs are blocking operations on an engine built with their RDMA
// profile. Latency and throughput follow the curves of Figures 7–10 via
// the spec.DMAProfile parameters.
//
// Two costs matter per operation and are deliberately separate:
//
//   - the issuing core's occupancy (how long a NIC core is tied up), and
//   - the engine occupancy (how long the shared DMA engine moves bytes).
//
// Blocking operations tie up the core for the full completion latency;
// non-blocking ones only for the command-insertion cost (I6), which is
// why the iPipe message rings use batched non-blocking ops.
package pcie

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
)

// IssueOccupancy is the core-side cost of inserting one non-blocking DMA
// command into the engine's command queue. It is below the observed
// non-blocking op latency (spec.DMAProfile.NonBlockingIssue) because
// command insertion pipelines: Figure 8's ≈10Mops/core small-payload
// non-blocking rate implies ≈0.1µs of core time per issue.
const IssueOccupancy = 100 * sim.Nanosecond

// Engine is one DMA engine instance (SmartNICs have several; iPipe uses
// one per I/O channel). It serializes transfers FIFO.
type Engine struct {
	eng     *sim.Engine
	prof    spec.DMAProfile
	station *sim.Station

	// Counters for experiment reporting.
	Reads, Writes uint64
	BytesRead     uint64
	BytesWritten  uint64

	sink  *obs.Sink
	track obs.TrackID

	freeOps sim.FreeList[dmaOp]
}

// dmaOp is one transfer in the engine's station: its Job, with Done bound
// to complete when the record is made, and what the completion needs. The
// record goes back to the engine's free list inside its own completion
// (DESIGN.md §4); past maxFreeOps in flight it is left to the GC.
type dmaOp struct {
	job      sim.Job
	e        *Engine
	name     string
	bytes    int
	overhead sim.Time
	done     func()
}

// maxFreeOps bounds an engine's free list of transfer records: the
// message rings keep a handful in flight.
const maxFreeOps = 64

// New creates a DMA engine with the given profile.
func New(eng *sim.Engine, prof spec.DMAProfile) *Engine {
	return &Engine{eng: eng, prof: prof, station: sim.NewStation(eng, 1), track: obs.NoTrack}
}

// Observe records the engine's byte-transfer occupancy as a "dma" lane
// in the given trace group, emitting through the owning partition's
// sink (sink 0 on classic clusters); a nil sink leaves tracing off.
func (e *Engine) Observe(sk *obs.Sink, group obs.GroupID) {
	e.sink, e.track = sk, sk.NewTrack(group, "dma")
}

// op submits a transfer and fires done when the completion word would be
// observed. latency is the unloaded completion latency for this op; the
// engine occupancy is the byte-transfer time, so contention adds
// queueing on top of the unloaded latency. name labels the trace span.
func (e *Engine) op(name string, bytes int, latency sim.Time, done func()) {
	transfer := e.prof.TransferTime(bytes)
	overhead := latency - transfer
	if overhead < 0 {
		overhead = 0
	}
	o := e.freeOps.Take()
	if o == nil {
		o = &dmaOp{e: e}
		o.job.Done = o.complete
	}
	o.job.Service = transfer
	o.name, o.bytes, o.overhead, o.done = name, bytes, overhead, done
	e.station.Submit(&o.job)
}

// complete is the transfer's Done: it releases the record — the station
// reads nothing of a job after its Done — and schedules the completion
// word.
func (o *dmaOp) complete(enq, started, fin sim.Time) {
	e, done, overhead := o.e, o.done, o.overhead
	e.sink.Span(e.track, o.name, started, fin, obs.Args{Bytes: o.bytes, Wait: started - enq})
	o.done = nil
	e.freeOps.Put(o, maxFreeOps)
	if done != nil {
		e.eng.After(overhead, done)
	}
}

// ReadBlocking starts a host-memory read. done fires when the completion
// word arrives; the caller (a core model) should stay busy until then.
// It returns the unloaded completion latency so callers can charge core
// occupancy without waiting for the callback.
func (e *Engine) ReadBlocking(bytes int, done func()) sim.Time {
	e.Reads++
	e.BytesRead += uint64(bytes)
	lat := e.prof.ReadLatency(bytes)
	e.op("read", bytes, lat, done)
	return lat
}

// WriteBlocking starts a host-memory write; see ReadBlocking.
func (e *Engine) WriteBlocking(bytes int, done func()) sim.Time {
	e.Writes++
	e.BytesWritten += uint64(bytes)
	lat := e.prof.WriteLatency(bytes)
	e.op("write", bytes, lat, done)
	return lat
}

// ReadAsync issues a non-blocking read: the core pays only
// IssueOccupancy; done fires when the data lands. The returned value is
// the core-side cost.
func (e *Engine) ReadAsync(bytes int, done func()) sim.Time {
	e.Reads++
	e.BytesRead += uint64(bytes)
	e.op("read async", bytes, e.prof.ReadLatency(bytes), done)
	return IssueOccupancy
}

// WriteAsync issues a non-blocking write; see ReadAsync.
func (e *Engine) WriteAsync(bytes int, done func()) sim.Time {
	e.Writes++
	e.BytesWritten += uint64(bytes)
	e.op("write async", bytes, e.prof.WriteLatency(bytes), done)
	return IssueOccupancy
}

// WriteGather aggregates several segments into one PCIe transfer using
// DMA scatter-gather (I6: "aggregate transfers into large PCIe
// messages"). One fixed protocol cost covers all segments.
func (e *Engine) WriteGather(segments []int, done func()) sim.Time {
	total := 0
	for _, s := range segments {
		total += s
	}
	return e.WriteAsync(total, done)
}
