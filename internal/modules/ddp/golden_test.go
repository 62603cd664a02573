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
// Each digest is recorded per architecture. On 386 the bits differ from
// amd64 in every configuration, and not through multiply-add fusion (Go's
// 386 port never fuses): the activation is math.Tanh, which calls
// math.Exp, and math.Exp has an amd64 assembly body whose last bit
// sometimes differs from the portable Go body 386 runs. Other
// architectures' compilers may also fuse x*y+z into one rounding, so they
// have no column and skip.
func TestTrainGoldenDigest(t *testing.T) {
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

	type digests struct{ flat, losses string }
	cases := []struct {
		name string
		cfg  Config
		arch map[string]digests
	}{
		{"bench-seed7", bench(7), map[string]digests{
			"amd64": {"8f3754495edd939d", "af06358032128c37"},
			"386":   {"42e2b33c2c65f8da", "715c5b709a02d319"},
		}},
		{"bench-seed11", bench(11), map[string]digests{
			"amd64": {"7e2dfdcb9bcf0b16", "0b1382d697ce860e"},
			"386":   {"31fd0f0211eecd5c", "0ee1e1f789cbfa0c"},
		}},
		{"zero1-batch3-seed7", zero1, map[string]digests{
			"amd64": {"00675d0237b992b4", "6e7be9597df6d6c6"},
			"386":   {"cfa1fafb4aa5de2a", "87d98c610835dc0a"},
		}},
		{"batch5-seed7", batch5, map[string]digests{
			"amd64": {"cc1eb110e266f31d", "75bdd6f2e08bf197"},
			"386":   {"883dcf8a96340e9e", "cef5e58b2320ae36"},
		}},
		{"defaults", Config{}, map[string]digests{
			"amd64": {"3b8bcbdb833344a1", "ca1af27c54db865e"},
			"386":   {"7eaaaac34e401084", "09788db88089a8e0"},
		}},
	}
	if _, ok := cases[0].arch[runtime.GOARCH]; !ok {
		t.Skipf("no golden digests recorded for %s, whose compiler may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.arch[runtime.GOARCH]
			res := trainOnce(t, 4, tc.cfg)
			if got := digestFloats(res.FinalFlat); got != want.flat {
				t.Errorf("FinalFlat digest %s, want %s", got, want.flat)
			}
			if got := digestFloats(res.Losses); got != want.losses {
				t.Errorf("Losses digest %s, want %s", got, want.losses)
			}
		})
	}
}
