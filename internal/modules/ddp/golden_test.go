package ddp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// digestFloats is the FNV-64a hash of the little-endian IEEE-754 bits of v.
func digestFloats(v []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainGoldenDigest pins whole training runs to recorded digests of
// rank 0's final parameters and loss curve. The step kernels are free to
// change how they walk memory, never the order in which any element is
// summed; a kernel that reorders one sum changes these bits.
//
// The digests hold on amd64 only: the Go spec lets other architectures'
// compilers fuse x*y+z into one rounding, which changes the bits.
func TestTrainGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	// The bench's ddp-chan configuration: 64→128×12→16.
	layers := []int{64}
	for i := 0; i < 12; i++ {
		layers = append(layers, 128)
	}
	layers = append(layers, 16)
	bench := func(seed int64) Config {
		return Config{
			Layers: layers, BatchPerRank: 4, Steps: 12,
			BucketBytes: 128 << 10, Overlap: true, Seed: seed,
		}
	}
	zero1 := bench(7)
	zero1.Zero1, zero1.BatchPerRank = true, 3 // remainder loop only
	batch5 := bench(7)
	batch5.BatchPerRank = 5 // one block of four plus the remainder

	cases := []struct {
		name         string
		cfg          Config
		flat, losses string
	}{
		{"bench-seed7", bench(7), "8f3754495edd939d", "af06358032128c37"},
		{"bench-seed11", bench(11), "7e2dfdcb9bcf0b16", "0b1382d697ce860e"},
		{"zero1-batch3-seed7", zero1, "00675d0237b992b4", "6e7be9597df6d6c6"},
		{"batch5-seed7", batch5, "cc1eb110e266f31d", "75bdd6f2e08bf197"},
		{"defaults", Config{}, "3b8bcbdb833344a1", "ca1af27c54db865e"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := trainOnce(t, 4, tc.cfg)
			if got := digestFloats(res.FinalFlat); got != tc.flat {
				t.Errorf("FinalFlat digest %s, want %s", got, tc.flat)
			}
			if got := digestFloats(res.Losses); got != tc.losses {
				t.Errorf("Losses digest %s, want %s", got, tc.losses)
			}
		})
	}
}
