package mpi

type reqKind int8

const (
	reqSend reqKind = iota
	reqRecv
	reqRMAPut // Win.PutAsync: done when its issue epoch has closed
)

// Request represents an outstanding nonblocking operation started by
// Isend, Irecv or Win.PutAsync, mirroring MPI_Request.
// Complete it with Wait, WaitRecvInto (typed) or poll it with Test.
type Request struct {
	comm *Comm
	kind reqKind
	done bool
	lent bool // send requests: the caller's buffer is lent until the ack

	peer int // world rank of the peer; -1 for wildcard receives
	tag  int

	// send requests
	seq   int64 // rendezvous sequence; 0 for eager sends
	msgid int64 // profiling flow id; 0 unless a hook is attached

	// receive requests
	pr  *pendingRecv
	env *envelope
	st  Status

	// one-sided requests
	win    *Win
	issued int64 // reqRMAPut: window epoch the op joined
}

// Wait blocks until the request completes (MPI_Wait). For receive
// requests the returned bytes are the message payload; for send requests
// the payload is nil.
func (r *Request) Wait() ([]byte, Status, error) {
	sp := r.comm.begin(PrimWait)
	b, st, err := r.wait()
	// A send wait is attributed to the destination; a receive wait
	// carries the matched message's flow id and queue latency.
	switch {
	case r.kind != reqRecv:
		sp.end(r.peer, r.tag, 0, r.msgid, 0, 0)
	case r.env != nil:
		sp.end(r.env.wsrc, int(r.env.tag), len(r.env.data), 0, r.env.msgid, queuedFor(r.env))
	default:
		sp.end(r.peer, r.tag, 0, 0, 0, 0)
	}
	return b, st, err
}

// wait is the uninstrumented body of Wait.
func (r *Request) wait() ([]byte, Status, error) {
	if r.done {
		return r.payload(), r.st, nil
	}
	switch r.kind {
	case reqSend:
		if r.seq != 0 {
			if err := r.comm.awaitAck(r.seq, r.peer, r.lent); err != nil {
				return nil, Status{}, err
			}
		}
		r.done = true
		return nil, Status{}, nil
	case reqRMAPut:
		// Done once the epoch the Put joined has closed. Waiting on the
		// request closes it here, exactly as Flush would.
		if r.win.epoch <= r.issued {
			if err := r.win.completePending(); err != nil {
				return nil, Status{}, err
			}
		}
		r.done = true
		return nil, Status{}, nil
	default: // reqRecv
		env, err := r.comm.finishRecv(r.pr)
		if err != nil {
			return nil, Status{}, err
		}
		r.pr = nil // recycled by finishRecv
		r.complete(env)
		return env.data, r.st, nil
	}
}

// Test reports whether the request has completed without blocking
// (MPI_Test). When it returns true, the payload and status are final and
// subsequent Wait calls return the same values.
func (r *Request) Test() (bool, []byte, Status, error) {
	if r.done {
		return true, r.payload(), r.st, nil
	}
	switch r.kind {
	case reqSend:
		if r.seq == 0 || r.comm.mb.tryAck(r.seq) {
			r.done = true
			return true, nil, Status{}, nil
		}
		return false, nil, Status{}, nil
	case reqRMAPut:
		// Never blocks and never closes the epoch itself: complete only
		// once a Fence/Flush/Wait has moved the window past the
		// epoch this Put joined.
		if r.win.epoch > r.issued {
			r.done = true
			return true, nil, Status{}, nil
		}
		return false, nil, Status{}, nil
	default: // reqRecv
		env, ok := r.comm.mb.tryRecv(r.pr)
		if !ok {
			return false, nil, Status{}, nil
		}
		putPR(r.pr)
		r.pr = nil
		r.complete(env)
		return true, env.data, r.st, nil
	}
}

func (r *Request) complete(env *envelope) {
	r.env = env
	r.st = Status{Source: env.src, Tag: int(env.tag), Bytes: len(env.data)}
	r.done = true
}

func (r *Request) payload() []byte {
	if r.env != nil {
		return r.env.data
	}
	return nil
}

// Waitall completes every request (MPI_Waitall), returning the first error
// encountered after attempting all of them. When any request fails, the
// payloads of the requests that did complete are recycled before
// returning: the caller only sees the error, so it could never Release
// them itself, and each would otherwise leak out of the buffer pool.
func Waitall(reqs ...*Request) error {
	var firstErr error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, _, err := r.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		for _, r := range reqs {
			if r == nil || !r.done {
				continue
			}
			if r.env != nil && r.env.data != nil {
				putBuf(r.env.data)
				r.env.data = nil
			}
		}
	}
	return firstErr
}

// WaitRecvInto completes a typed nonblocking receive, decoding into dst's
// backing array when its capacity suffices and recycling the wire buffer.
// It consumes the request's payload: subsequent Wait or Test calls still
// report completion but return a nil payload.
func WaitRecvInto[T Scalar](r *Request, dst []T) ([]T, Status, error) {
	b, st, err := r.Wait()
	if err != nil {
		return nil, st, err
	}
	xs, err := UnmarshalInto(dst, b)
	if r.env != nil {
		r.env.data = nil
	}
	putBuf(b)
	return xs, st, err
}
