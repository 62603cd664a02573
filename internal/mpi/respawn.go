package mpi

import (
	"bytes"
	"errors"
	"fmt"
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

// respawnResetTimeout bounds how long the resetting survivor waits for a
// killed rank's goroutine to finish unwinding.
const respawnResetTimeout = 5 * time.Second

// RespawnAndRestore rebuilds the communicator at full width after a
// failure: each failed member is replaced by a fresh goroutine running
// fn, and a new communicator with the original membership is returned on
// a fresh context. It is collective over the survivors: all of them must
// call it after observing a RankFailedError, passing the same fn (the
// lowest survivor's fn is the one replacement ranks run). fn typically
// restores rank state from the latest checkpoint and rejoins the
// computation; its Comm argument is the replacement rank's handle on the
// rebuilt communicator.
//
// The survivors first agree on which members failed (the agreement
// behind Shrink and Agree, so failures declared while it runs are
// absorbed and revived in the same rebuild). The lowest survivor then
// revives the agreed set and spawns the replacements, and its go-ahead,
// broadcast over the rebuilt communicator, releases every member —
// survivors and replacements — so no rank sends to a slot before it is
// live again. A failure that lands after the agreement surfaces as a
// RankFailedError from that broadcast; RespawnAndRestore then returns the
// rebuilt communicator ALONGSIDE the error, and the caller retries the
// rebuild from it (RunResilient does this) — retrying from the old
// communicator would diverge from the replacement ranks, which only exist
// on the new one.
func (c *Comm) RespawnAndRestore(fn func(*Comm) error) (*Comm, error) {
	w := c.world
	if len(w.localRanks) != w.size { // replacements are goroutines of this World
		return nil, ErrRespawnUnsupported
	}
	failed, _, err := c.agree("RespawnAndRestore", true)
	if err != nil {
		return nil, err
	}
	if bytes.IndexByte(failed, 1) < 0 {
		return nil, errors.New("mpi: RespawnAndRestore: no member of the communicator is declared failed")
	}
	nc := c.successor(failed, true)
	resetter := bytes.IndexByte(failed, 0) // the lowest survivor
	if c.rank == resetter {
		for cr, f := range failed {
			if f == 0 {
				continue
			}
			if err := w.resetRank(c.members[cr], c.members, failed); err != nil {
				return nil, err
			}
			w.spawnReplacement(nc, cr, resetter, fn)
		}
	}
	w.emitLifecycle(c.worldRank, LifeRecovery, fmt.Sprintf("respawn: world back at width %d", len(nc.members)))
	if err := nc.respawnGoAhead(resetter); err != nil {
		if errors.Is(err, ErrRankFailed) {
			return nc, err
		}
		return nil, err
	}
	return nc, nil
}

// respawnGoAhead is the rebuilt communicator's first operation: an empty
// broadcast from the resetting survivor, which sends it only once every
// replacement is live. It is not a counted primitive.
func (c *Comm) respawnGoAhead(resetter int) error {
	_, err := runSched[byte](c, schedBcast, resetter, nil, nil, inPlace)
	return err
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

// resetRank revives a killed rank's runtime state so a replacement
// goroutine can take over its mailbox: it waits for the dying goroutine
// to finish unwinding (markFinished wakes the wait), clears the
// dead/finished flags, and withdraws the failure declaration. killRank
// emptied the queues and a dead mailbox accepts nothing, so only receives
// the dying goroutine posted itself are left to drop. The replacement
// starts with a fresh liveness timestamp, and it starts having
// acknowledged the current epoch only if every declared failure among
// members is one the rebuild handles (failed); otherwise its first
// blocking operation reports the newer failure. The call counter is NOT
// reset, so a call-indexed kill rule does not re-fire on the replacement.
func (w *World) resetRank(r int, members []int, failed []byte) error {
	mb := w.mailboxes[r]
	mb.mu.Lock()
	if !mb.finished {
		expired := false
		t := time.AfterFunc(respawnResetTimeout, func() {
			mb.mu.Lock()
			expired = true
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		for !mb.finished && !expired {
			mb.cond.Wait()
		}
		t.Stop()
		if !mb.finished {
			mb.mu.Unlock()
			return fmt.Errorf("mpi: respawn: rank %d has not finished unwinding after %v", r, respawnResetTimeout)
		}
	}
	// The kill flag clears under mu, as post reads it: no arrival meant
	// for the replacement is dropped as if the rank were still dead.
	w.killed[r].Store(false)
	mb.finished, mb.pending = false, nil
	mb.mu.Unlock()

	w.noteHeard(r)
	w.failMu.Lock()
	w.failed[r] = false
	w.failMu.Unlock()
	view := make([]byte, len(members))
	if e := w.failedView(members, view); covers(failed, view) {
		mb.failAck.Store(e)
	}
	w.finishedCount.Add(-1)
	relRespawns.Add(1)
	w.emitLifecycle(r, LifeRecovery, "rank respawned at full width")
	return nil
}

// spawnReplacement launches the goroutine standing in for member cr of
// the rebuilt communicator nc: its handle is nc's, seen from slot cr. It
// first waits for the resetter's go-ahead, then runs the recovery
// function.
func (w *World) spawnReplacement(nc *Comm, cr, resetter int, fn func(*Comm) error) {
	wr := nc.members[cr]
	rc := *nc
	rc.worldRank, rc.rank, rc.mb = wr, cr, w.mailboxes[wr]
	w.launch(wr, &rc, func(rc *Comm) error {
		err := rc.respawnGoAhead(resetter)
		if err == nil || errors.Is(err, ErrRankFailed) {
			// A failed go-ahead means yet another rank died during the
			// rebuild; fn (typically a RunResilient loop) observes it on
			// its first operation and recovers like any other failure.
			err = fn(rc)
		}
		return err
	})
}
