package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Respawn-based recovery: the complement of ULFM's Shrink (ulfm.go).
// Where Shrink rebuilds a *smaller* world from the survivors, respawn
// rebuilds the world at *full width*: every failed rank is replaced by a
// fresh goroutine running a caller-supplied recovery function, which
// typically restores the rank's state from the latest checkpoint
// (internal/ckpt) and rejoins the computation. This is the model of
// Fenix and of the MPI Reinit proposal — the application keeps its rank
// layout and data decomposition, paying instead with a restart-from-
// checkpoint on the replaced ranks.
//
// Respawn requires every rank of the world to live in this process
// (Run or RunTCP), because a replacement is a goroutine sharing the
// World's mailboxes; a multi-process worker cannot re-create a peer
// process and returns ErrRespawnUnsupported.

// ErrRespawnUnsupported is returned by RespawnAndRestore on worlds that
// cannot spawn replacement ranks — a multi-process launch, where each
// rank is its own OS process.
var ErrRespawnUnsupported = errors.New("mpi: RespawnAndRestore requires all ranks in one process (Run or RunTCP)")

// respawnsTotal counts ranks brought back at full width, across all
// worlds in the process (telemetry: mpi_respawns_total).
var respawnsTotal atomic.Int64

// RespawnsTotal returns the number of ranks respawned by
// RespawnAndRestore process-wide.
func RespawnsTotal() int64 { return respawnsTotal.Load() }

// respawnResetTimeout bounds how long the coordinating survivor waits
// for a killed rank's goroutine to finish unwinding before reset.
const respawnResetTimeout = 5 * time.Second

// RespawnAndRestore acknowledges every currently-declared failure and
// rebuilds the communicator at full width: each failed rank is replaced
// by a fresh goroutine running fn, and a new communicator with the
// original membership is returned on a fresh context. It is collective
// over the survivors: all of them must call it after observing a
// RankFailedError, passing the same fn (the lowest survivor's fn is the
// one replacement ranks run). fn typically restores rank state from the
// latest checkpoint and rejoins the computation; its Comm argument is
// the replacement rank's handle on the rebuilt communicator.
//
// All members — survivors and replacements — synchronize on a barrier
// before RespawnAndRestore returns, so stale traffic from the
// pre-failure world cannot be mismatched into the rebuilt one.
// Failures that land WHILE a rebuild is underway are handled at two
// points. A failure declared before the coordinator finishes its
// rendezvous is absorbed: the victim joins the dead list and is revived
// with the rest. A failure declared later surfaces as a RankFailedError
// from the rebuild barrier; RespawnAndRestore then returns the
// partially-rebuilt communicator ALONGSIDE the error, and the caller
// retries the rebuild from it (RunResilient does this) — retrying from
// the old communicator would diverge from the replacement ranks, which
// only exist on the new one.
func (c *Comm) RespawnAndRestore(fn func(*Comm) error) (*Comm, error) {
	w := c.world
	if !w.canRespawn {
		return nil, ErrRespawnUnsupported
	}
	// Acknowledge everything declared so far and announce this rank's
	// arrival. The join generation — not the failure epoch — is the
	// rendezvous token: every participant of one rebuild holds the same
	// communicator lineage, so gen is identical across them even when
	// staggered failures give them different epoch snapshots.
	epoch := w.failEpoch.Load()
	failed := w.failedSet()
	if failed[c.worldRank] {
		return nil, fmt.Errorf("mpi: RespawnAndRestore: calling rank %d is itself declared failed", c.worldRank)
	}
	var dead []int
	for _, wr := range c.members {
		if failed[wr] {
			dead = append(dead, wr)
		}
	}
	sort.Ints(dead)
	if len(dead) == 0 {
		return nil, errors.New("mpi: RespawnAndRestore: no member of the communicator is declared failed")
	}
	gen := c.splitSeq + 1
	c.mb.failAck.Store(epoch)
	c.mb.respawnJoin.Store(gen)

	// Every participant — survivors here, replacements below — derives
	// the successor context from the same key. Respawn colors live in a
	// negative band disjoint from both user splits (never negative) and
	// Shrink's -1-epoch band. The color must be identical on every
	// participant, so it derives from gen, never from the (possibly
	// divergent) epoch snapshot.
	c.splitSeq++
	ctx := w.ctxFor(ctxKey{parentCtx: c.ctx, splitSeq: c.splitSeq, color: -(1 << 20) - int(gen)})
	members := append([]int(nil), c.members...)

	if err := w.respawnCoordinate(c.worldRank, members, dead, gen, ctx, fn); err != nil {
		return nil, err
	}

	nc := &Comm{
		world:     w,
		worldRank: c.worldRank,
		rank:      c.rank,
		members:   members,
		ctx:       ctx,
		splitSeq:  c.splitSeq,
		mb:        c.mb,
	}
	w.emitLifecycle(c.worldRank, LifeRecovery,
		fmt.Sprintf("respawn: world back at width %d (rebuild %d)", len(members), gen))
	if err := nc.Barrier(); err != nil {
		if errors.Is(err, ErrRankFailed) {
			// A further failure landed during the barrier; hand the
			// rebuilt comm back so the caller can retry FROM it, in step
			// with the replacement ranks that already live on it.
			return nc, err
		}
		return nil, err
	}
	return nc, nil
}

// respawnCoordinate is the synchronization phase of RespawnAndRestore.
// The lowest live member coordinates; everyone else waits for the
// failures it captured at entry to be repaired. Both roles re-sample
// the failed set every pass, so a coordinator that dies before joining
// is succeeded by the next live member, and a stale snapshot cannot
// elect a dead one.
func (w *World) respawnCoordinate(self int, members, dead []int, gen int64, ctx int32, fn func(*Comm) error) error {
	deadline := time.Now().Add(respawnResetTimeout)
	for {
		if err := w.stopErr(); err != nil {
			return err
		}
		if w.respawnGen.Load() >= gen {
			// This generation's rebuild already completed — possibly by a
			// coordinator that has since died. Do not coordinate it a
			// second time and do not wait for revivals it never promised;
			// proceed to the rebuild barrier, which either completes or
			// fails with the RankFailedError that triggers the next
			// generation.
			return nil
		}
		failedNow := w.failedSet()
		resetter := -1
		for _, wr := range members {
			if !failedNow[wr] {
				resetter = wr
				break
			}
		}
		if resetter == -1 {
			return errors.New("mpi: RespawnAndRestore: every member of the communicator is declared failed")
		}
		if resetter == self {
			return w.respawnReset(members, gen, ctx, fn, deadline)
		}
		// Non-coordinator: the coordinator's final dead list is always a
		// superset of the set captured at entry (it samples after every
		// survivor joined), so these revivals are guaranteed. Failures
		// declared after entry surface at the rebuild barrier instead.
		revived := true
		for _, r := range dead {
			if w.isKilled(r) || failedNow[r] {
				revived = false
				break
			}
		}
		if revived {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mpi: RespawnAndRestore: ranks %v not revived within %v", dead, respawnResetTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// respawnReset is the coordinator's half of the rebuild: wait until
// every member has either joined this generation or been declared
// failed (failures landing during the rendezvous are absorbed into the
// dead list), acknowledge the absorbed epoch on every survivor's
// behalf, then revive the dead and spawn their replacements.
func (w *World) respawnReset(members []int, gen int64, ctx int32, fn func(*Comm) error, deadline time.Time) error {
	var epoch int64
	var failedNow map[int]bool
	for {
		if err := w.stopErr(); err != nil {
			return err
		}
		// Epoch BEFORE set: a declaration bumps the map first, then the
		// epoch, so the set sampled second covers every failure the
		// epoch counts — acknowledging `epoch` below can never cover a
		// failure missing from `failedNow`.
		epoch = w.failEpoch.Load()
		failedNow = w.failedSet()
		allIn := true
		for _, wr := range members {
			if failedNow[wr] {
				continue
			}
			if w.mailboxes[wr].respawnJoin.Load() < gen {
				allIn = false
				break
			}
		}
		if allIn {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mpi: RespawnAndRestore: not all survivors joined rebuild %d within %v", gen, respawnResetTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Survivors that captured an older snapshot never observed the
	// absorbed failures; acknowledge on their behalf BEFORE any
	// declaration is withdrawn, so no rank can see a repaired world
	// while an already-handled epoch still reads as unacknowledged.
	for _, wr := range members {
		if failedNow[wr] {
			continue
		}
		if mb := w.mailboxes[wr]; mb.failAck.Load() < epoch {
			mb.failAck.Store(epoch)
		}
	}
	for _, wr := range members {
		if !failedNow[wr] {
			continue
		}
		if err := w.resetRank(wr, epoch); err != nil {
			return err
		}
	}
	for cr, wr := range members {
		if failedNow[wr] {
			w.spawnReplacement(wr, cr, members, ctx, gen, fn)
		}
	}
	// Publish completion BEFORE this coordinator makes another MPI call
	// (the rebuild barrier, where it may itself be killed): from here on
	// no late survivor may coordinate this generation again.
	for {
		cur := w.respawnGen.Load()
		if cur >= gen || w.respawnGen.CompareAndSwap(cur, gen) {
			break
		}
	}
	return nil
}

// RunResilient runs attempt and, whenever a rank failure interrupts it,
// rebuilds the world at full width with RespawnAndRestore and retries
// with restart=true — the module-level recovery loop shared by kmeans
// and distsort. Replacement ranks execute the same loop (always with
// restart=true), so a failure during recovery is handled like any
// other. The killed rank itself returns ErrRankKilled unchanged; any
// error other than a rank failure propagates after at most world-size
// rebuild attempts.
//
// attempt typically runs one module computation: on restart it must
// restore state from the latest checkpoint rather than start fresh, and
// it must derive any rank-specific inputs from rc (a replacement may be
// running on behalf of a rank other than the original caller).
func (c *Comm) RunResilient(attempt func(rc *Comm, restart bool) error) error {
	rc, restart, rebuild := c, false, false
	lastErr := error(ErrRankFailed)
	for tries := 0; ; tries++ {
		if !rebuild {
			err := attempt(rc, restart)
			if err == nil || errors.Is(err, ErrRankKilled) || !errors.Is(err, ErrRankFailed) {
				return err
			}
			lastErr = err
		}
		rebuild = false
		if tries >= c.world.size {
			return fmt.Errorf("mpi: RunResilient: giving up after %d rebuilds: %w", tries, lastErr)
		}
		nc, rerr := rc.RespawnAndRestore(func(nrc *Comm) error {
			return nrc.RunResilient(func(rc2 *Comm, _ bool) error {
				return attempt(rc2, true)
			})
		})
		if rerr != nil {
			if errors.Is(rerr, ErrRankFailed) {
				// Another rank died during the rebuild. When the rebuild
				// itself completed (only its barrier failed), go STRAIGHT
				// to the next rebuild from the new communicator — the
				// replacement ranks exist only there, and re-running
				// attempt on the abandoned context would post stale
				// collective traffic a late rank could mistake for live
				// contributions.
				if nc != nil {
					rc, rebuild = nc, true
				}
				restart = true
				continue
			}
			return rerr
		}
		rc, restart = nc, true
	}
}

// stillFailed reports whether r remains in the declared-failed set.
func (w *World) stillFailed(r int) bool {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failed[r]
}

// resetRank revives a killed rank's runtime state so a replacement
// goroutine can take over its mailbox: waits for the dying goroutine to
// finish unwinding, clears the dead/finished flags and any leftover
// queued state, and withdraws the failure declaration. Ordering matters
// at the end: the liveness timestamp is refreshed before the kill flag
// clears and the failed-set entry is removed, so the heartbeat monitor
// cannot re-declare the rank failed in the gap.
func (w *World) resetRank(r int, epoch int64) error {
	mb := w.mailboxes[r]
	deadline := time.Now().Add(respawnResetTimeout)
	for {
		mb.mu.Lock()
		fin := mb.finished
		mb.mu.Unlock()
		if fin {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mpi: respawn: rank %d has not finished unwinding after %v", r, respawnResetTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	mb.mu.Lock()
	mb.dead = false
	mb.finished = false
	for _, e := range mb.unexpected {
		putBuf(e.data)
		putEnv(e)
	}
	mb.unexpected = nil
	mb.pending = nil
	for seq := range mb.acks {
		delete(mb.acks, seq)
	}
	for seq, b := range mb.rmaResp {
		putBuf(b)
		delete(mb.rmaResp, seq)
	}
	// The replacement starts having acknowledged exactly the epoch this
	// rebuild absorbed — NOT the live epoch, which may already count a
	// failure the rebuild is not handling; pre-acknowledging that one
	// would let the replacement sail past the rebuild barrier everyone
	// else is about to fail out of. The call counter is NOT reset, so a
	// call-indexed kill rule does not re-fire on the replacement.
	mb.failAck.Store(epoch)
	mb.mu.Unlock()

	w.noteHeard(r)
	w.killed[r].Store(false)
	w.failMu.Lock()
	delete(w.failed, r)
	w.failMu.Unlock()
	w.finishedCount.Add(-1)
	respawnsTotal.Add(1)
	w.emitLifecycle(r, LifeRecovery, "rank respawned at full width")
	return nil
}

// spawnReplacement launches the goroutine standing in for revived rank
// wr. It first joins the rebuild barrier (synchronizing with the
// survivors inside RespawnAndRestore), then runs the recovery function.
// Its terminal bookkeeping mirrors run()'s rank wrapper, so the world's
// detector and teardown treat replacements exactly like original ranks.
func (w *World) spawnReplacement(wr, cr int, members []int, ctx int32, splitSeq int64, fn func(*Comm) error) {
	w.respawnWG.Add(1)
	go func() {
		defer w.respawnWG.Done()
		rc := &Comm{
			world:     w,
			worldRank: wr,
			rank:      cr,
			members:   members,
			ctx:       ctx,
			splitSeq:  splitSeq,
			mb:        w.mailboxes[wr],
		}
		err := rc.Barrier()
		if err == nil || errors.Is(err, ErrRankFailed) {
			// A rebuild-barrier failure means yet another rank died while
			// this replacement was joining; fn (typically a RunResilient
			// loop) observes it on its first operation and recovers like
			// any other failure.
			err = fn(rc)
		}
		w.mailboxes[wr].markFinished()
		w.finishedCount.Add(1)
		w.signalDetector()
		if err != nil {
			w.respawnMu.Lock()
			w.respawnErrs = append(w.respawnErrs, fmt.Errorf("respawned rank %d: %w", wr, err))
			w.respawnMu.Unlock()
			if !errors.Is(err, ErrRankKilled) {
				w.abort(err)
			}
		}
	}()
}
