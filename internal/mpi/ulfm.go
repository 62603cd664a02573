package mpi

import (
	"bytes"
	"errors"
	"fmt"
)

// ULFM-style recovery: after a RankFailedError, surviving ranks rebuild
// a smaller world with Shrink or reach a fault-tolerant agreement with
// Agree (MPI_Comm_shrink, MPI_Comm_agree); RespawnAndRestore (respawn.go)
// rebuilds at full width. All three stand on one agreement on the failed
// set, agree below. The survivors cannot simply read the World's failed
// set: a declaration reaches ranks at different moments, and every
// process of a RunProcesses world keeps its own set and its own epoch.
// So they exchange and OR their views until no rank learns anything new,
// and the agreed set is the only thing a successor communicator is
// derived from (successor).

// Agreement messages travel on the collective context, under a tag above
// MaxUserTag that only the agreement sequence selects: survivors that
// failed in different collectives disagree on the collective sequence
// but still match. A message is one flag byte, then one mark per member
// (1 = failed).
const (
	agreeTagBase = MaxUserTag + 1
	agreeVote    = 1 << 0 // the AND of every vote folded into the value
	agreeDecided = 1 << 1 // the sender has decided: adopt the value
)

// Colors of recovery successors in ctxKey: negative, so they never
// collide with a Split color.
const (
	shrinkColor  = -1
	respawnColor = -2
)

// Shrink returns a new communicator containing only the surviving members
// of c, preserving their relative order (MPI_Comm_shrink). It is
// collective over the survivors: all of them must call Shrink after
// observing a RankFailedError. They first agree on which members failed,
// and a failure that lands while they do is absorbed into that agreement,
// so Shrink completes across it. Operations on the returned communicator
// run on a fresh context, so stale traffic from the pre-failure world
// cannot be mismatched into it.
func (c *Comm) Shrink() (*Comm, error) {
	failed, _, err := c.agree("Shrink", true)
	if err != nil {
		return nil, err
	}
	nc := c.successor(failed, false)
	c.world.emitLifecycle(c.worldRank, LifeRecovery, fmt.Sprintf("shrink: %d survivors", len(nc.members)))
	return nc, nil
}

// Agree performs a fault-tolerant agreement over the surviving ranks of c
// and returns the logical AND of their flags (MPI_Comm_agree). A failure
// that lands during the agreement is absorbed, and every failure the
// survivors agreed on is acknowledged, so afterwards they can keep using
// c for point-to-point traffic among themselves.
func (c *Comm) Agree(flag bool) (bool, error) {
	_, vote, err := c.agree("Agree", flag)
	return vote, err
}

// successor derives the communicator that follows c once its survivors
// have agreed that the members marked in failed are gone: without them
// (Shrink), or at full width with replacements in their slots (keep, for
// RespawnAndRestore). It is keyed on the agreement and the agreed set, so
// only ranks that agreed on exactly this set can ever talk on it.
func (c *Comm) successor(failed []byte, keep bool) *Comm {
	nc := &Comm{world: c.world, worldRank: c.worldRank, mb: c.mb}
	for cr, wr := range c.members {
		if failed[cr] != 0 && !keep {
			continue
		}
		if cr == c.rank {
			nc.rank = len(nc.members)
		}
		nc.members = append(nc.members, wr)
	}
	color := shrinkColor
	if keep {
		color = respawnColor
	}
	nc.ctx = c.world.ctxFor(ctxKey{parentCtx: c.ctx, splitSeq: c.agreeSeq, color: color, failed: string(failed)})
	return nc
}

// agree is the fault-tolerant agreement behind Shrink, Agree and
// RespawnAndRestore. It returns the failed set the survivors of c agree
// on (one mark per member) and the AND of their votes.
//
// It runs in rounds. At the start of each a rank folds its World's view
// of the failed set into its value and sends the value to every member
// it does not hold failed; then it folds in one value from each of them,
// no longer waiting for a member once it is declared failed or another
// member's value reports it failed. A round in which every value received
// equals the value sent and the view added nothing decides. The decider
// tells every live member, and a rank still in an earlier round adopts
// that decision and passes it on. Values only grow, so the rounds end
// once failures stop. Before returning, a rank reads every live member's
// messages up to that member's decision, so the agreement leaves nothing
// queued.
//
// On return the rank has acknowledged the failure epoch at which it
// folded in the last value it sent that the decision covers. A
// declaration the decision does not cover — a member it left out, or a
// respawned rank dying again — still surfaces as a RankFailedError from
// the next blocking operation. The agreement's messages are not counted
// primitives, so it shifts no call-indexed kill point.
func (c *Comm) agree(op string, vote bool) ([]byte, bool, error) {
	p := len(c.members)
	c.agreeSeq++
	tag := agreeTagBase + int(c.agreeSeq%MaxUserTag)
	entryAck := c.mb.failAck.Load()
	val := make([]byte, 1+p)
	if vote {
		val[0] = agreeVote
	}
	marks := val[1:]
	type round struct {
		epoch int64  // failure epoch folded in before sending
		sent  []byte // the value sent
	}
	var rounds []round
	// Messages arrive from any member in any order across members (FIFO
	// from each); inbox holds those received ahead of the round that
	// consumes them.
	inbox := make([][][]byte, p)
	defer func() {
		for _, q := range inbox {
			for _, b := range q {
				putBuf(b)
			}
		}
	}()
	take := func(owed func(cr int) bool) (int, []byte, error) {
		for {
			waiting := false
			for cr, q := range inbox {
				if cr == c.rank || !owed(cr) {
					continue
				}
				if len(q) > 0 {
					inbox[cr] = q[1:]
					return cr, q[0], nil
				}
				waiting = true
			}
			if !waiting {
				return -1, nil, nil
			}
			cr, b, err := c.agreeRecv(tag, marks)
			if err != nil {
				return -1, nil, err
			}
			if b != nil {
				inbox[cr] = append(inbox[cr], b)
			}
		}
	}
	decidedBy := make([]bool, p) // members whose decision has been read
	var out []byte
	epoch := c.absorb(marks)
	for out == nil {
		if marks[c.rank] != 0 {
			return nil, false, fmt.Errorf("mpi: %s: calling rank %d is itself declared failed", op, c.worldRank)
		}
		sent := bytes.Clone(val)
		rounds = append(rounds, round{epoch, sent})
		if err := c.agreeSend(sent, tag); err != nil {
			return nil, false, err
		}
		heard := make([]bool, p)
		clean := true
		for out == nil {
			cr, msg, err := take(func(cr int) bool { return marks[cr] == 0 && !heard[cr] })
			if err != nil {
				return nil, false, err
			}
			if cr < 0 {
				break
			}
			heard[cr] = true
			if msg[0]&agreeDecided != 0 {
				decidedBy[cr] = true
				out = bytes.Clone(msg)
			} else {
				clean = clean && bytes.Equal(msg, sent)
				val[0] &= msg[0]
				for i, m := range msg[1:] {
					marks[i] |= m
				}
			}
			putBuf(msg)
		}
		if out == nil {
			epoch = c.absorb(marks)
			if clean && bytes.Equal(val, sent) {
				out = sent
			}
		}
	}
	decided := out[1:]
	if decided[c.rank] != 0 {
		return nil, false, fmt.Errorf("mpi: %s: calling rank %d is itself declared failed", op, c.worldRank)
	}
	out[0] |= agreeDecided
	if err := c.agreeSend(out, tag); err != nil {
		return nil, false, err
	}
	for {
		cr, msg, err := take(func(cr int) bool { return decided[cr] == 0 && marks[cr] == 0 && !decidedBy[cr] })
		if err != nil {
			return nil, false, err
		}
		if cr < 0 {
			break
		}
		decidedBy[cr] = msg[0]&agreeDecided != 0
		putBuf(msg)
	}
	ack := entryAck
	for i := len(rounds) - 1; i >= 0; i-- {
		if covers(decided, rounds[i].sent[1:]) {
			ack = rounds[i].epoch
			break
		}
	}
	c.mb.failAck.Store(ack)
	return decided, out[0]&agreeVote != 0, nil
}

// absorb folds the World's view of the failed set into marks and
// acknowledges the epoch it reflects, so a wait inside the agreement is
// interrupted only by a declaration not yet folded in.
func (c *Comm) absorb(marks []byte) int64 {
	e := c.world.failedView(c.members, marks)
	c.mb.failAck.Store(e)
	return e
}

// agreeSend sends the agreement value val to every other member it does
// not mark failed. Sends are eager: an agreement never waits on a match.
func (c *Comm) agreeSend(val []byte, tag int) error {
	for cr, m := range val[1:] {
		if cr == c.rank || m != 0 {
			continue
		}
		b := getBuf(len(val))
		copy(b, val)
		if err := c.collSendHop(b, false, cr, tag, true); err != nil {
			return err
		}
	}
	return nil
}

// agreeRecv returns the next agreement message from any member with its
// sender (the payload is a pooled buffer), or no message once a failure
// declaration interrupts the wait — folded into marks by then.
func (c *Comm) agreeRecv(tag int, marks []byte) (int, []byte, error) {
	pr := c.collIrecv(AnySource, tag)
	env, err := c.finishRecv(pr)
	if err != nil {
		c.mb.cancelRecv(pr)
		if !errors.Is(err, ErrRankFailed) {
			return -1, nil, err
		}
		c.absorb(marks)
		return -1, nil, nil
	}
	cr, b := env.src, env.data
	putEnv(env)
	return cr, b, nil
}

// covers reports whether every member marked in sub is marked in set.
func covers(set, sub []byte) bool {
	for i, m := range sub {
		if m != 0 && set[i] == 0 {
			return false
		}
	}
	return true
}
