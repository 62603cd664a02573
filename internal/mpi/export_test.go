package mpi

// Test-only views of unexported kernels for the package mpi_test tests,
// which instantiate the predefined operators outside package mpi the way
// every module does, and options that only this package's tests set.

// IsSum reports whether reduceFromWire recognises op as OpSum and folds
// with an inline +.
func IsSum[T Scalar](op Op[T]) bool { return isSum(op) }

// ReduceFromWire is reduceFromWire.
func ReduceFromWire[T Scalar](dst []T, b []byte, op Op[T]) error {
	return reduceFromWire(dst, b, op)
}

// WithDeadlockDetection toggles the deadlock detector (default on for the
// channel transport, unavailable over TCP or any layered link stack).
func WithDeadlockDetection(on bool) Option {
	return func(o *options) { o.detectDeadlock = on }
}

// forceCodecFallback makes the wire codec take the element-wise path a
// big-endian host runs, for every type and alignment, until the returned
// func restores the host's byte order. No world may be running meanwhile.
func forceCodecFallback() (restore func()) {
	host := hostLittleEndian
	hostLittleEndian = false
	return func() { hostLittleEndian = host }
}
