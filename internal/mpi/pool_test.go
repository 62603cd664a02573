package mpi

import (
	"fmt"
	"testing"
	"unsafe"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{4096, 6}, {4097, 7}, {65536, 10}, {1 << 22, 16}, {1<<22 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetBufSizing(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 4096, 65536, 1 << 22} {
		b := getBuf(n)
		if len(b) != n {
			t.Fatalf("getBuf(%d) len = %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("getBuf(%d) cap = %d", n, cap(b))
		}
		putBuf(b)
	}
	if b := getBuf(0); b != nil {
		t.Fatalf("getBuf(0) = %v, want nil", b)
	}
	// Oversize requests bypass the pool but still work.
	big := getBuf(1<<22 + 1)
	if len(big) != 1<<22+1 {
		t.Fatalf("oversize getBuf len = %d", len(big))
	}
	putBuf(big)
}

func TestPoolRecycles(t *testing.T) {
	b := getBuf(100)
	b[0] = 42
	putBuf(b)
	c := getBuf(100)
	// Same class: a recycled buffer must come back full-length with its
	// class-invariant capacity.
	if len(c) != 100 || cap(c) < 128 {
		t.Fatalf("recycled buffer len=%d cap=%d", len(c), cap(c))
	}
	putBuf(c)
}

func TestReleaseSafeOnAnyBuffer(t *testing.T) {
	Release(nil)
	Release(make([]byte, 10))    // below the smallest class: dropped
	Release(make([]byte, 100))   // pooled
	Release(make([]byte, 1<<23)) // above the largest class: dropped
	Release(getBuf(256))         // the normal case
}

func TestEnvelopePool(t *testing.T) {
	e := getEnv()
	e.kind = kindData
	e.src = 3
	e.data = []byte{1, 2}
	putEnv(e)
	f := getEnv()
	if f.kind != 0 || f.src != 0 || f.data != nil || f.seq != 0 {
		t.Fatalf("recycled envelope not zeroed: %+v", f)
	}
	putEnv(f)
}

func TestPendingRecvPool(t *testing.T) {
	pr := getPR(7, 2, 5)
	if pr.ctx != 7 || pr.src != 2 || pr.tag != 5 || pr.env != nil {
		t.Fatalf("getPR fields: %+v", pr)
	}
	pr.env = &envelope{}
	putPR(pr)
	qr := getPR(1, AnySource, AnyTag)
	if qr.env != nil {
		t.Fatal("recycled pendingRecv kept its envelope")
	}
	putPR(qr)
}

// TestWireBuffersAligned: the reduce kernels fold from a typed view of the
// wire only where it is 8-byte aligned, so the fast path is the one that
// runs only if every buffer a payload can land in is aligned: each pool
// class, fresh and recycled, the oversize path, and every payload a
// mailbox receives over the channel transport, over TCP and over TCP with
// reliable links, on the eager and the rendezvous protocol alike.
func TestWireBuffersAligned(t *testing.T) {
	aligned := func(b []byte) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 }
	for class := 0; class < numBufClasses; class++ {
		hi := 1 << (minBufClassBits + class)
		for _, n := range []int{1, 7, hi/2 + 1, hi} {
			if classFor(n) != class {
				continue
			}
			fresh := getBuf(n)
			putBuf(fresh)
			recycled := getBuf(n)
			if !aligned(fresh) || !aligned(recycled) {
				t.Fatalf("getBuf(%d) (class %d): fresh at %p, recycled at %p, want 8-byte aligned", n, class, fresh, recycled)
			}
			putBuf(recycled)
		}
	}
	if big := getBuf(1<<maxBufClassBits + 1); !aligned(big) {
		t.Fatalf("oversize getBuf at %p, want 8-byte aligned", big)
	}

	sizes := []int{1, 7, 8, 13, 64, 100, DefaultEagerThreshold, DefaultEagerThreshold + 1, 3<<16 + 5}
	runners := []struct {
		name string
		run  func(int, func(*Comm) error, ...Option) error
		opts []Option
	}{
		{"channel", Run, nil},
		{"tcp", RunTCP, nil},
		{"tcp-reliable", RunTCP, []Option{WithReliableLinks()}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			err := r.run(2, func(c *Comm) error {
				for i, n := range sizes {
					if c.Rank() == 0 {
						// Bytes the caller owns, and a typed payload the
						// runtime marshals itself.
						if err := Send(c, make([]byte, n), 1, 2*i); err != nil {
							return err
						}
						if err := Send(c, make([]float64, n), 1, 2*i+1); err != nil {
							return err
						}
						continue
					}
					for tag := 2 * i; tag <= 2*i+1; tag++ {
						b, _, err := c.RecvBytes(0, tag)
						if err != nil {
							return err
						}
						if !aligned(b) {
							return fmt.Errorf("%d-byte payload (tag %d) received at %p, want 8-byte aligned", len(b), tag, b)
						}
						Release(b)
					}
				}
				return nil
			}, r.opts...)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
