package telemetry

import (
	"repro/internal/mpi"
)

// rankMetrics is the instrument set of one rank, backed by that rank's
// own Registry. Slices are indexed by mpi.Primitive, so the hot path is
// two slice loads and a few atomic adds — no maps, no locks, no
// allocation.
type rankMetrics struct {
	reg     *Registry
	calls   []Counter
	bytes   []Counter
	latency []Histogram
	blocked Counter
	queued  Counter
}

// MPISet implements mpi.Hook and mpi.LifecycleHook over a fleet of
// per-rank registries plus one shared process registry. The hook
// dispatches on Event.Rank, so concurrent rank goroutines touch disjoint
// instrument sets (and even same-rank concurrency is safe: everything
// underneath is atomic).
type MPISet struct {
	ranks     []*rankMetrics
	proc      *Registry
	lifecycle map[string]Counter
	lifeOther Counter
}

// NewMPISet builds instrument sets for np ranks. Every rank registers the
// identical series universe — the property the cross-rank merge and the
// transport parity tests rely on.
func NewMPISet(np int) *MPISet {
	s := &MPISet{proc: NewRegistry()}
	prims := mpi.Primitives()
	for r := 0; r < np; r++ {
		reg := NewRegistry()
		rm := &rankMetrics{
			reg:     reg,
			calls:   make([]Counter, len(prims)),
			bytes:   make([]Counter, len(prims)),
			latency: make([]Histogram, len(prims)),
		}
		for i, p := range prims {
			l := L("prim", p.String())
			rm.calls[i] = reg.Counter("mpi_calls_total", "Primitive invocations.", l)
			rm.bytes[i] = reg.Counter("mpi_bytes_total", "User payload bytes moved by primitive invocations.", l)
			rm.latency[i] = reg.Histogram("mpi_latency_seconds", "Wall time inside primitive invocations.", nil, l)
		}
		rm.blocked = reg.DurationCounter("mpi_blocked_seconds_total", "Time blocked inside primitives waiting on the runtime.")
		rm.queued = reg.DurationCounter("mpi_queued_seconds_total", "Time consumed messages sat in the receive queue.")
		s.ranks = append(s.ranks, rm)
	}

	// Process-wide series: lifecycle counters fed by mpi.LifecycleHook,
	// pool, icoll, RMA batch and resilience counters read from the
	// runtime's package atomics at scrape time.
	s.lifecycle = make(map[string]Counter)
	for _, kind := range []string{mpi.LifeFailure, mpi.LifeRetry, mpi.LifeCheckpoint, mpi.LifeRecovery, mpi.LifeInject} {
		s.lifecycle[kind] = s.proc.Counter("mpi_lifecycle_total", "Fault-tolerance lifecycle events.", L("kind", kind))
	}
	s.lifeOther = s.proc.Counter("mpi_lifecycle_total", "Fault-tolerance lifecycle events.", L("kind", "other"))
	s.proc.CounterFunc("mpi_pool_hits_total", "Buffer requests served from the pool free lists.",
		func() int64 { return mpi.PoolStats().Hits })
	s.proc.CounterFunc("mpi_pool_misses_total", "Buffer requests that had to allocate.",
		func() int64 { return mpi.PoolStats().Misses })
	s.proc.GaugeFunc("mpi_pool_bytes_in_flight", "Pooled capacity bytes checked out and not yet recycled.",
		func() int64 { return mpi.PoolStats().BytesInFlight })
	s.proc.CounterFunc("mpi_heartbeats_sent_total", "Heartbeat envelopes emitted by the liveness layer.",
		func() int64 { return mpi.ReliabilityStats().HeartbeatsSent })
	s.proc.CounterFunc("mpi_heartbeats_received_total", "Heartbeat envelopes absorbed by mailboxes.",
		func() int64 { return mpi.ReliabilityStats().HeartbeatsReceived })
	s.proc.CounterFunc("mpi_rma_batch_flushes_total", "One-sided Put/Accumulate batches flushed (frames sent or applied directly).",
		func() int64 { return mpi.RMABatchStats().Flushes })
	s.proc.CounterFunc("mpi_rma_batch_ops_total", "Logical one-sided ops coalesced into batches; divide by flushes for the coalescing ratio.",
		func() int64 { return mpi.RMABatchStats().Ops })
	s.proc.CounterFunc("mpi_rma_batch_bytes_total", "Batch frame bytes flushed by the one-sided coalescing layer.",
		func() int64 { return mpi.RMABatchStats().Bytes })
	s.proc.CounterFunc("mpi_rma_batch_direct_total", "Batch flushes that took the shared-memory fast path instead of the mailbox.",
		func() int64 { return mpi.RMABatchStats().DirectApplies })
	s.proc.CounterFunc("mpi_icoll_started_total", "Nonblocking collectives initiated (Iallreduce, Iallgather).",
		func() int64 { return mpi.IcollStats().Started })
	s.proc.CounterFunc("mpi_icoll_completed_total", "Nonblocking collectives completed (successfully or with an error).",
		func() int64 { return mpi.IcollStats().Completed })
	s.proc.CounterFunc("mpi_icoll_steps_total", "State-machine step batches executed by nonblocking collectives; steps minus completions approximates background progress.",
		func() int64 { return mpi.IcollStats().Steps })
	s.proc.CounterFunc("mpi_icoll_arrivals_total", "Collective hop arrivals that advanced a nonblocking collective on the delivering goroutine.",
		func() int64 { return mpi.IcollStats().Arrivals })
	s.proc.CounterFunc("mpi_retransmits_total", "Data frames re-sent by the reliable link layer after a retransmit timeout.",
		func() int64 { return mpi.ReliabilityStats().Retransmits })
	s.proc.CounterFunc("mpi_acks_total", "Cumulative link acknowledgements written by the reliable link layer.",
		func() int64 { return mpi.ReliabilityStats().AcksSent })
	s.proc.CounterFunc("mpi_frames_dropped_total", "Outbound frames discarded by the fault injector.",
		func() int64 { return mpi.ReliabilityStats().FramesDropped })
	s.proc.CounterFunc("mpi_frames_corrupt_total", "Frames corrupted by the fault injector (CRC-rejected on reliable links).",
		func() int64 { return mpi.ReliabilityStats().FramesCorrupt })
	s.proc.CounterFunc("mpi_respawns_total", "Ranks brought back at full width by RespawnAndRestore.",
		func() int64 { return mpi.ReliabilityStats().Respawns })
	return s
}

// resilienceSeries are the process-wide reliability/recovery counters
// that Merge folds into the cross-rank view alongside the per-rank
// series, so the end-of-run table shows what the wire and the recovery
// layer did during the run.
var resilienceSeries = map[string]bool{
	"mpi_retransmits_total":    true,
	"mpi_acks_total":           true,
	"mpi_frames_dropped_total": true,
	"mpi_frames_corrupt_total": true,
	"mpi_respawns_total":       true,
}

// Ranks returns the number of per-rank instrument sets.
func (s *MPISet) Ranks() int { return len(s.ranks) }

// RankRegistry returns rank r's registry (nil if out of range).
func (s *MPISet) RankRegistry(r int) *Registry {
	if r < 0 || r >= len(s.ranks) {
		return nil
	}
	return s.ranks[r].reg
}

// ProcessRegistry returns the shared process-level registry.
func (s *MPISet) ProcessRegistry() *Registry { return s.proc }

// Event implements mpi.Hook: the per-call hot path. Budget: two bounds
// checks, at most five atomic adds and one bucket scan — no locks, no
// allocations.
func (s *MPISet) Event(e mpi.Event) {
	if e.Rank < 0 || e.Rank >= len(s.ranks) {
		return
	}
	rm := s.ranks[e.Rank]
	p := int(e.Prim)
	if p < 0 || p >= len(rm.calls) {
		return
	}
	rm.calls[p].Inc()
	if e.Bytes > 0 {
		rm.bytes[p].Add(int64(e.Bytes))
	}
	rm.latency[p].Observe(e.Dur)
	if e.Blocked > 0 {
		rm.blocked.Add(int64(e.Blocked))
	}
	if e.Queued > 0 {
		rm.queued.Add(int64(e.Queued))
	}
}

// Lifecycle implements mpi.LifecycleHook.
func (s *MPISet) Lifecycle(e mpi.LifecycleEvent) {
	if c, ok := s.lifecycle[e.Kind]; ok {
		c.Inc()
		return
	}
	s.lifeOther.Inc()
}
