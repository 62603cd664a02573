package ddp

import (
	"math"
	"math/rand"
	"testing"
)

// The plain per-sample step kernels, kept verbatim as the oracle for the
// sample-blocked ones in mlp.go: one pass over a weight row per sample,
// every sum in its defining order.

func refForward(m *model, X []float64) {
	copy(m.acts[0], X)
	last := len(m.layers) - 1
	for l, lay := range m.layers {
		in, out := lay.in, lay.out
		A, Z := m.acts[l], m.acts[l+1]
		for s := 0; s < m.batch; s++ {
			arow := A[s*in : (s+1)*in]
			zrow := Z[s*out : (s+1)*out]
			for o := 0; o < out; o++ {
				sum := lay.b[o]
				wrow := lay.W[o*in : (o+1)*in]
				for i, a := range arow {
					sum += wrow[i] * a
				}
				if l != last {
					sum = math.Tanh(sum)
				}
				zrow[o] = sum
			}
		}
	}
}

func refBackwardLayer(m *model, l int) {
	lay := m.layers[l]
	in, out := lay.in, lay.out
	A := m.acts[l]
	for s := 0; s < m.batch; s++ {
		drow := m.delta[s*out : (s+1)*out]
		arow := A[s*in : (s+1)*in]
		for o, d := range drow {
			lay.db[o] += d
			wg := lay.dW[o*in : (o+1)*in]
			for i, a := range arow {
				wg[i] += d * a
			}
		}
	}
	if l == 0 {
		return // no need to propagate into the input
	}
	// delta2 = (delta · W) ⊙ tanh'(input activation); tanh' = 1 - a².
	for s := 0; s < m.batch; s++ {
		drow := m.delta[s*out : (s+1)*out]
		prow := m.delta2[s*in : (s+1)*in]
		for i := range prow {
			prow[i] = 0
		}
		for o, d := range drow {
			wrow := lay.W[o*in : (o+1)*in]
			for i, w := range wrow {
				prow[i] += d * w
			}
		}
		arow := A[s*in : (s+1)*in]
		for i, a := range arow {
			prow[i] *= 1 - a*a
		}
	}
	m.delta, m.delta2 = m.delta2, m.delta
}

func refUpdateFull(b *bucket, lr, momentum, invNP float64) {
	for i := range b.params {
		g := b.grads[i] * invNP
		b.vel[i] = momentum*b.vel[i] + g
		b.params[i] -= lr * b.vel[i]
	}
}

// edgeValue draws a weight or input: mostly ordinary values at the
// initialization's scale, with signed zeros and subnormals mixed in.
func edgeValue(rng *rand.Rand, scale float64) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 1:
		return math.Float64frombits(uint64(rng.Intn(2))<<63 | rng.Uint64()&(1<<52-1))
	default:
		return rng.NormFloat64() * scale
	}
}

// firstDiff returns the first index at which a and b differ in bits, or
// -1 when they are identical.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMLPKernelsMatchRef drives the blocked kernels and the per-sample
// oracle through identical steps on random shapes — layer widths 1–130,
// most not multiples of four, and batches 1–9, so both the four-sample
// block and the remainder loop run — and requires every activation,
// gradient, delta, parameter and momentum to agree bit for bit.
func TestMLPKernelsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 80; trial++ {
		sizes := make([]int, 2+rng.Intn(3))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(130)
		}
		batch := 1 + rng.Intn(9)
		np := 1 + rng.Intn(3)
		bucketBytes := 1 << (8 + rng.Intn(12))
		got := newModel(sizes, batch, bucketBytes, np, false, 1)
		ref := newModel(sizes, batch, bucketBytes, np, false, 1)
		for l, lay := range got.layers {
			scale := 1 / math.Sqrt(float64(lay.in))
			for i := range lay.W {
				lay.W[i] = edgeValue(rng, scale)
			}
			for i := range lay.b {
				lay.b[i] = edgeValue(rng, 0.1)
			}
			copy(ref.layers[l].W, lay.W)
			copy(ref.layers[l].b, lay.b)
		}
		X := make([]float64, batch*sizes[0])
		Y := make([]float64, batch*sizes[len(sizes)-1])
		check := func(step int, what string, a, b []float64) {
			t.Helper()
			if i := firstDiff(a, b); i >= 0 {
				t.Fatalf("sizes %v batch %d step %d: %s differs from the oracle at %d", sizes, batch, step, what, i)
			}
		}
		for step := 0; step < 3; step++ {
			for i := range X {
				X[i] = edgeValue(rng, 1)
			}
			for i := range Y {
				Y[i] = rng.NormFloat64()
			}
			for bi := range got.buckets {
				clear(got.buckets[bi].grads)
				clear(ref.buckets[bi].grads)
			}
			got.forward(X)
			refForward(ref, X)
			for l := range got.acts {
				check(step, "acts", got.acts[l], ref.acts[l])
			}
			if gl, rl := got.outputLoss(Y), ref.outputLoss(Y); math.Float64bits(gl) != math.Float64bits(rl) {
				t.Fatalf("step %d: loss %g vs %g", step, gl, rl)
			}
			for l := len(got.layers) - 1; l >= 0; l-- {
				got.backwardLayer(l)
				refBackwardLayer(ref, l)
				check(step, "dW", got.layers[l].dW, ref.layers[l].dW)
				check(step, "db", got.layers[l].db, ref.layers[l].db)
				check(step, "delta", got.delta, ref.delta)
			}
			for bi, b := range got.buckets {
				b.updateFull(0.05, 0.9, 1/float64(np))
				refUpdateFull(&ref.buckets[bi], 0.05, 0.9, 1/float64(np))
				check(step, "params", b.params, ref.buckets[bi].params)
				check(step, "vel", b.vel, ref.buckets[bi].vel)
			}
		}
	}
}
