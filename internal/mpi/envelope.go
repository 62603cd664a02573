package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"time"
	"unsafe"
)

// envelope kinds.
const (
	kindData      int8 = iota // application or collective payload
	kindAck                   // rendezvous acknowledgement
	kindHeartbeat             // liveness beacon for the failure detector
	kindAbort                 // cross-process abort propagation; payload is the cause
	kindRMAReq                // one-sided requests; payload is an RMA frame (rma.go)
	kindRMAResp               // one-sided reply carrying fetched data (Get, CompareAndSwap)
	kindLinkAck               // reliable links' cumulative ack; seq is the link sequence acked through (reliable.go)
)

// envelope is the unit moved by a transport. src is the sender's rank
// relative to the communicator identified by ctx (what Recv matches and
// Status reports); wsrc and wdst are world ranks used for routing, the
// rendezvous reply path, and traffic accounting. For kindData envelopes,
// seq is nonzero when the sender awaits a rendezvous acknowledgement; the
// receiver replies with a kindAck envelope carrying the same seq.
//
// Envelopes are pooled (getEnv/putEnv); data, when non-nil, is an
// exclusively owned pooled payload buffer unless lent is set — see
// pool.go for the ownership contract.
type envelope struct {
	kind int8

	// lent marks data as memory the pool does not own: until the match,
	// the slice of a parked rendezvous sender (lendOrCopy); after it, the
	// destination a RecvInto named. It never crosses a socket.
	lent bool

	// crc and lseq are the reliable-link stamp (reliable.go): the link
	// sequence number, 0 for an unsequenced envelope, and the CRC32C the
	// receive half checks. They ride in the socket frame's link prefix.
	crc  uint32
	lseq uint64

	src   int   // communicator-relative sender rank
	wsrc  int   // world rank of the sender
	wdst  int   // world rank of the destination
	ctx   int32 // communicator context (even: user, odd: collective shadow)
	tag   int32
	seq   int64 // rendezvous sequence; 0 when no ack is required
	msgid int64 // profiling flow id; 0 unless a Hook is attached
	data  []byte

	// arrived is the receiver-side arrival stamp, set by the destination
	// mailbox when a Hook is attached. It never crosses the wire, so the
	// queue-latency measurement is immune to cross-host clock skew.
	arrived time.Time
}

const envelopeHeaderLen = 1 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 4 // kind, src, wsrc, wdst, ctx, tag, seq, msgid, len

// putHeader encodes the fixed-size envelope header — everything except
// the payload bytes — into b[:envelopeHeaderLen]. The final field is the
// payload length, taken from len(e.data).
func putHeader(b []byte, e *envelope) {
	b[0] = byte(e.kind)
	binary.LittleEndian.PutUint32(b[1:], uint32(int32(e.src)))
	binary.LittleEndian.PutUint32(b[5:], uint32(int32(e.wsrc)))
	binary.LittleEndian.PutUint32(b[9:], uint32(int32(e.wdst)))
	binary.LittleEndian.PutUint32(b[13:], uint32(e.ctx))
	binary.LittleEndian.PutUint32(b[17:], uint32(e.tag))
	binary.LittleEndian.PutUint64(b[21:], uint64(e.seq))
	binary.LittleEndian.PutUint64(b[29:], uint64(e.msgid))
	binary.LittleEndian.PutUint32(b[37:], uint32(len(e.data)))
}

// parseHeader decodes the fields written by putHeader into e and returns
// the payload length the sender declared. e.data is left untouched so the
// caller can read the payload directly into a right-sized buffer.
func parseHeader(b []byte, e *envelope) int {
	e.kind = int8(b[0])
	e.src = int(int32(binary.LittleEndian.Uint32(b[1:])))
	e.wsrc = int(int32(binary.LittleEndian.Uint32(b[5:])))
	e.wdst = int(int32(binary.LittleEndian.Uint32(b[9:])))
	e.ctx = int32(binary.LittleEndian.Uint32(b[13:]))
	e.tag = int32(binary.LittleEndian.Uint32(b[17:]))
	e.seq = int64(binary.LittleEndian.Uint64(b[21:]))
	e.msgid = int64(binary.LittleEndian.Uint64(b[29:]))
	return int(binary.LittleEndian.Uint32(b[37:]))
}

// wireBytes returns the on-wire size of the envelope, counted by the
// traffic accounting regardless of transport.
func (e *envelope) wireBytes() int { return envelopeHeaderLen + len(e.data) }

// Scalar enumerates the element types that can cross rank boundaries.
// Fixed-width little-endian encoding is used on the wire, so the TCP and
// channel transports carry identical bytes.
type Scalar interface {
	~byte | ~int16 | ~uint16 | ~int32 | ~uint32 | ~int64 | ~uint64 | ~int | ~uint | ~float32 | ~float64
}

// scalarSize reports the encoded size in bytes of T, derived from the
// underlying kind so named types (type ID int16) encode at their true
// width. Go's int and uint are always encoded as 8 bytes.
func scalarSize[T Scalar]() int {
	var z T
	switch any(z).(type) {
	case byte:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int64, uint64, int, uint, float64:
		return 8
	}
	return namedScalarSize[T]()
}

// namedScalarSize is the width of a named scalar type, taken from its
// kind, so a named int or uint encodes at 8 bytes on every host, as int
// and uint do.
func namedScalarSize[T Scalar]() int {
	switch reflect.TypeFor[T]().Kind() {
	case reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	}
	return 8
}

// marshalPooled encodes xs into a pooled buffer sized exactly to the
// payload. The result is exclusively owned by the caller, who must hand
// it to an owned-send or return it with putBuf.
func marshalPooled[T Scalar](xs []T) []byte {
	n := scalarSize[T]() * len(xs)
	if n == 0 {
		return nil
	}
	return AppendMarshal(getBuf(n)[:0], xs)
}

// hostLittleEndian is the host's byte order, read once at start-up. On a
// little-endian host a scalar stored at its wire width is its own wire
// encoding. Tests clear it to drive the element-wise fallback a
// big-endian host runs.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// nativeWire reports whether a []T's memory image is its canonical wire
// encoding: the host is little-endian and a T occupies its wire width
// (size) in memory. That holds for every Scalar, named ones included,
// except ~int and ~uint on 32-bit hosts.
func nativeWire[T Scalar](size int) bool {
	var z T
	return hostLittleEndian && unsafe.Sizeof(z) == uintptr(size)
}

// memBytes is the memory image of xs as a byte slice sharing its array.
// A byte view needs no alignment, so it is valid for any []T.
func memBytes[T Scalar](xs []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(z)))
}

// AppendMarshal appends the canonical wire encoding of xs to dst and
// returns the extended slice, allocating only when dst lacks capacity.
// It is the zero-copy building block under the typed send wrappers.
func AppendMarshal[T Scalar](dst []byte, xs []T) []byte {
	size := scalarSize[T]()
	if nativeWire[T](size) {
		return append(dst, memBytes(xs)...)
	}
	for _, x := range xs {
		dst = appendScalar(dst, x, size)
	}
	return dst
}

// appendScalar appends x's size-byte wire encoding: a float's IEEE
// bits, an integer's two's complement cut to size bytes.
func appendScalar[T Scalar](out []byte, x T, size int) []byte {
	var bits uint64
	switch {
	case !isFloat[T]():
		bits = uint64(x)
	case size == 4:
		bits = uint64(math.Float32bits(float32(x)))
	default:
		bits = math.Float64bits(float64(x))
	}
	switch size {
	case 1:
		return append(out, byte(bits))
	case 2:
		return binary.LittleEndian.AppendUint16(out, uint16(bits))
	case 4:
		return binary.LittleEndian.AppendUint32(out, uint32(bits))
	default:
		return binary.LittleEndian.AppendUint64(out, bits)
	}
}

// isFloat reports whether T has a floating-point underlying type. The
// division trick distinguishes floats (1/2 = 0.5) from integers (1/2 = 0)
// without reflection.
func isFloat[T Scalar]() bool {
	return T(1)/T(2) != T(0)
}

// Unmarshal decodes a canonical wire-format payload into a fresh slice of
// T. It returns an error when the payload is not a whole number of
// elements.
func Unmarshal[T Scalar](b []byte) ([]T, error) {
	return UnmarshalInto[T](nil, b)
}

// UnmarshalInto decodes a canonical wire-format payload into dst's
// backing array when its capacity suffices, allocating a replacement
// otherwise, and returns the filled slice. Pass a recycled dst (length is
// ignored) to keep decode loops allocation-free.
func UnmarshalInto[T Scalar](dst []T, b []byte) ([]T, error) {
	size := scalarSize[T]()
	if len(b)%size != 0 {
		return nil, errElemSize(len(b), size)
	}
	n := len(b) / size
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	decodeSlice(dst, b, size)
	return dst, nil
}

func errElemSize(n, size int) error {
	return fmt.Errorf("mpi: Unmarshal: %d bytes is not a multiple of element size %d", n, size)
}

// decodeInto decodes b into dst, whose length must match exactly. It is
// the in-place kernel under the collectives' fixed-geometry receives.
func decodeInto[T Scalar](dst []T, b []byte) error {
	size := scalarSize[T]()
	if len(b) != len(dst)*size {
		return fmt.Errorf("%w: payload of %d bytes for %d elements of size %d", ErrLengthMismatch, len(b), len(dst), size)
	}
	decodeSlice(dst, b, size)
	return nil
}

// decodeSlice is the typed decode kernel shared by UnmarshalInto and
// decodeInto; len(b) == len(out)*size is the caller's responsibility.
// Where the wire is out's memory image it is one copy; elsewhere the
// elements are decoded one at a time.
func decodeSlice[T Scalar](out []T, b []byte, size int) {
	if nativeWire[T](size) {
		copy(memBytes(out), b)
		return
	}
	for i := range out {
		out[i] = scalarFromBytes[T](b[i*size:], size)
	}
}

func scalarFromBytes[T Scalar](b []byte, size int) T {
	var bits uint64
	switch size {
	case 1:
		bits = uint64(b[0])
	case 2:
		bits = uint64(binary.LittleEndian.Uint16(b))
	case 4:
		bits = uint64(binary.LittleEndian.Uint32(b))
	default:
		bits = binary.LittleEndian.Uint64(b)
	}
	if isFloat[T]() {
		if size == 4 {
			return T(math.Float32frombits(uint32(bits)))
		}
		return T(math.Float64frombits(bits))
	}
	return fromBits[T](bits, size)
}

func fromBits[T Scalar](bits uint64, size int) T {
	switch size {
	case 1:
		return T(uint8(bits))
	case 2:
		return T(uint16(bits))
	case 4:
		return T(uint32(bits))
	default:
		return T(bits)
	}
}
