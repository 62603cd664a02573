package ddp

import (
	"math"
	"math/rand"
)

// The model: a dense multi-layer perceptron whose parameters and
// gradients live inside gradient buckets — flat []float64 arrays sized
// and padded for the communication schedule — with each layer's W and b
// as subslices. Packing storage by bucket (rather than bucketing by
// copying) is what makes the flush path allocation-free: initiating a
// bucket's collective passes the bucket's own backing array to the
// runtime's in-place ring.
//
// Bucket layout follows torch-DDP convention: layers are assigned in
// reverse order (the order backward produces gradients), greedily packed
// until the next layer would exceed the byte cap. The lowest-indexed
// layer of each bucket is the flush trigger: the moment backward
// finishes it, every gradient in the bucket is final.

// layer is one dense layer y = act(W·x + b), W row-major out×in. W, b,
// dW and db alias the owning bucket's flat params/grads arrays.
type layer struct {
	in, out int
	W, b    []float64
	dW, db  []float64
	bucket  int  // index of the bucket holding this layer
	flush   bool // backward finishing this layer completes the bucket
}

// bucket is one communication unit of parameters and gradients. Both
// arrays are padded to a multiple of the communicator size so the
// in-place ring collectives (Iallreduce, ReduceScatterInto, Iallgather)
// operate on them directly; pad elements start at zero and, because
// padded gradients are never written, provably stay zero through
// momentum updates on every rank.
type bucket struct {
	params []float64 // flat parameters, padded to a multiple of np
	grads  []float64 // matching gradient storage
	vel    []float64 // momentum state: full-length (DDP) or one shard (ZeRO-1)
	n      int       // live elements, before padding
}

// updateFull applies momentum SGD to the whole bucket from the
// allreduced gradient sums: g = Σ_ranks ∇/np, v = μv + g, p -= lr·v.
// grads and vel are resliced to the parameters' length so the loop runs
// without bounds checks.
func (b *bucket) updateFull(lr, momentum, invNP float64) {
	params := b.params
	grads, vel := b.grads[:len(params)], b.vel[:len(params)]
	for i := range params {
		g := grads[i] * invNP
		v := momentum*vel[i] + g
		vel[i] = v
		params[i] -= lr * v
	}
}

// updateShard applies the identical elementwise update to shard `rank`
// only — the segment ReduceScatterInto just filled with fully reduced
// gradients. vel holds just this shard (the ZeRO-1 memory saving), and
// because the arithmetic matches updateFull exactly, the parameters the
// subsequent allgather distributes are bit-identical to DDP's.
func (b *bucket) updateShard(lr, momentum, invNP float64, rank, np int) {
	shard := len(b.params) / np
	off := rank * shard
	for i := 0; i < shard; i++ {
		g := b.grads[off+i] * invNP
		b.vel[i] = momentum*b.vel[i] + g
		b.params[off+i] -= lr * b.vel[i]
	}
}

// model is the MLP plus the scratch buffers forward/backward reuse, so a
// steady-state training step performs no allocations outside the runtime.
// Layers and buckets are held by value, and every float array is carved
// from one of two backing arrays, so building a model costs the same
// handful of allocations whatever its depth.
type model struct {
	sizes   []int
	layers  []layer
	buckets []bucket

	batch  int
	acts   [][]float64 // acts[0] = input copy; acts[l+1] = layer l output, batch×out
	delta  []float64   // gradient w.r.t. the current layer's output
	delta2 []float64   // gradient w.r.t. its input (ping-pong buffer)
}

// newModel builds the bucketed MLP. Initialization draws from a rank-
// independent seed, so every rank starts from identical parameters
// without a broadcast (the usual alternative — rank 0 bcasting its init —
// would work too; determinism is simpler and keeps setup off the wire).
func newModel(sizes []int, batch, bucketBytes, np int, zero1 bool, seed int64) *model {
	nLayers := len(sizes) - 1
	m := &model{sizes: sizes, batch: batch, layers: make([]layer, nLayers)}

	// Group layers reverse-order into size-capped buckets: a bucket closes
	// when the next layer would push it past the cap, and the layer that
	// closed it last (its lowest-indexed one) is its flush trigger.
	nb, curBytes := 0, 0
	for l := nLayers - 1; l >= 0; l-- {
		in, out := sizes[l], sizes[l+1]
		sz := (in*out + out) * 8
		if l < nLayers-1 && curBytes+sz > bucketBytes {
			m.layers[l+1].flush = true
			nb, curBytes = nb+1, 0
		}
		m.layers[l] = layer{in: in, out: out, bucket: nb}
		curBytes += sz
	}
	m.layers[0].flush = true
	m.buckets = make([]bucket, nb+1)
	for _, lay := range m.layers {
		m.buckets[lay.bucket].n += lay.in*lay.out + lay.out
	}

	// One store for the whole model, carved bucket by bucket into params,
	// grads and momentum, so a bucket's three arrays sit side by side.
	// Params and grads are padded to a multiple of np; ZeRO-1's momentum
	// is one shard of them.
	sizeOf := func(b *bucket) (p, v int) {
		p = (b.n + np - 1) / np * np
		if zero1 {
			return p, p / np
		}
		return p, p
	}
	n := 0
	for i := range m.buckets {
		p, v := sizeOf(&m.buckets[i])
		n += 2*p + v
	}
	store := make([]float64, n)
	for i := range m.buckets {
		b := &m.buckets[i]
		p, v := sizeOf(b)
		b.params, b.grads, b.vel = carve(&store, p), carve(&store, p), carve(&store, v)
	}
	// Each bucket's layers take its arrays in the order they joined it.
	var ps, gs []float64
	for l := nLayers - 1; l >= 0; l-- {
		lay := &m.layers[l]
		if l == nLayers-1 || lay.bucket != m.layers[l+1].bucket {
			ps, gs = m.buckets[lay.bucket].params, m.buckets[lay.bucket].grads
		}
		lay.W, lay.dW = carve(&ps, lay.in*lay.out), carve(&gs, lay.in*lay.out)
		lay.b, lay.db = carve(&ps, lay.out), carve(&gs, lay.out)
	}

	// Deterministic init in ascending layer order (independent of the
	// bucket grouping, so changing -bucket-bytes never changes the model).
	rng := rand.New(rand.NewSource(seed))
	for l := range m.layers {
		lay := &m.layers[l]
		scale := 1.0 / math.Sqrt(float64(lay.in))
		for i := range lay.W {
			lay.W[i] = rng.NormFloat64() * scale
		}
	}

	// The activations and both delta buffers share one backing array.
	maxW, nAct := 0, 0
	for _, w := range sizes {
		maxW = max(maxW, w)
		nAct += batch * w
	}
	scratch := make([]float64, nAct+2*batch*maxW)
	m.acts = make([][]float64, nLayers+1)
	for l, w := range sizes {
		m.acts[l] = carve(&scratch, batch*w)
	}
	m.delta, m.delta2 = carve(&scratch, batch*maxW), carve(&scratch, batch*maxW)
	return m
}

// carve cuts the next n elements off *s, with the capacity capped so no
// piece can grow into its neighbour.
func carve(s *[]float64, n int) []float64 {
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}

// paramCount returns the number of live (unpadded) parameters.
func (m *model) paramCount() int {
	n := 0
	for _, b := range m.buckets {
		n += b.n
	}
	return n
}

// flatParams concatenates every bucket's live parameters, the canonical
// order the bit-identity tests compare.
func (m *model) flatParams() []float64 {
	out := make([]float64, 0, m.paramCount())
	for _, b := range m.buckets {
		out = append(out, b.params[:b.n]...)
	}
	return out
}

// flatVel concatenates every bucket's live momentum state in the same
// order as flatParams. Only meaningful under full replication, where
// every rank holds the complete velocity; ZeRO-1 shards it per rank.
func (m *model) flatVel() []float64 {
	out := make([]float64, 0, m.paramCount())
	for _, b := range m.buckets {
		out = append(out, b.vel[:b.n]...)
	}
	return out
}

// setFlatParams restores parameters from a flatParams snapshot. Padded
// tail elements are untouched; they are provably zero on a fresh model
// and stay zero through updates.
func (m *model) setFlatParams(v []float64) {
	off := 0
	for _, b := range m.buckets {
		copy(b.params[:b.n], v[off:off+b.n])
		off += b.n
	}
}

// setFlatVel restores momentum state from a flatVel snapshot (full
// replication only).
func (m *model) setFlatVel(v []float64) {
	off := 0
	for _, b := range m.buckets {
		copy(b.vel[:b.n], v[off:off+b.n])
		off += b.n
	}
}

// The step kernels below walk the batch in blocks of four samples, so
// one pass over a weight row serves four samples, and finish the last
// batch%4 samples one at a time. Blocking changes only the walk, never
// the order of a sum: each dot product is one accumulator from b[o] in
// ascending i, dW and db add their samples in ascending s, and delta2
// adds its outputs in ascending o — so results are bit-identical to the
// plain per-sample loops (mlp_oracle_test.go keeps those as the oracle).
// Rows are resliced to the weight row's length so the inner loops run
// without bounds checks.

// rows4 returns rows s..s+3 of the row-major matrix M with n columns.
func rows4(M []float64, s, n int) (r0, r1, r2, r3 []float64) {
	return M[s*n : (s+1)*n], M[(s+1)*n : (s+2)*n], M[(s+2)*n : (s+3)*n], M[(s+3)*n : (s+4)*n]
}

// forward runs the batch through the network: tanh hidden layers, linear
// output. X is batch×sizes[0] row-major and is copied into acts[0] for
// backward.
func (m *model) forward(X []float64) {
	copy(m.acts[0], X)
	last := len(m.layers) - 1
	for l := range m.layers {
		lay := &m.layers[l]
		in, out := lay.in, lay.out
		A, Z := m.acts[l], m.acts[l+1]
		hidden := l != last
		s := 0
		for ; s+4 <= m.batch; s += 4 {
			a0, a1, a2, a3 := rows4(A, s, in)
			for o := 0; o < out; o++ {
				w := lay.W[o*in : (o+1)*in]
				a0, a1, a2, a3 := a0[:len(w)], a1[:len(w)], a2[:len(w)], a3[:len(w)]
				s0, s1, s2, s3 := lay.b[o], lay.b[o], lay.b[o], lay.b[o]
				for i, wi := range w {
					s0 += wi * a0[i]
					s1 += wi * a1[i]
					s2 += wi * a2[i]
					s3 += wi * a3[i]
				}
				if hidden {
					s0, s1, s2, s3 = math.Tanh(s0), math.Tanh(s1), math.Tanh(s2), math.Tanh(s3)
				}
				Z[s*out+o], Z[(s+1)*out+o], Z[(s+2)*out+o], Z[(s+3)*out+o] = s0, s1, s2, s3
			}
		}
		for ; s < m.batch; s++ {
			arow := A[s*in : (s+1)*in]
			zrow := Z[s*out : (s+1)*out]
			for o := range zrow {
				w := lay.W[o*in : (o+1)*in]
				arow := arow[:len(w)]
				sum := lay.b[o]
				for i, wi := range w {
					sum += wi * arow[i]
				}
				if hidden {
					sum = math.Tanh(sum)
				}
				zrow[o] = sum
			}
		}
	}
}

// outputLoss computes the mean-squared-error against Y (batch×sizes[last])
// and seeds m.delta with ∂loss/∂output. The 1/(batch·outDim)
// normalization makes the allreduced gradient sum an np-scaled global
// batch average.
func (m *model) outputLoss(Y []float64) float64 {
	out := m.sizes[len(m.sizes)-1]
	A := m.acts[len(m.acts)-1]
	norm := 1.0 / float64(m.batch*out)
	loss := 0.0
	for i := 0; i < m.batch*out; i++ {
		d := A[i] - Y[i]
		loss += d * d
		m.delta[i] = 2 * d * norm
	}
	return loss * norm
}

// backwardLayer consumes m.delta (∂loss/∂ this layer's output), writes
// dW and db, and leaves ∂loss/∂ input in m.delta for the next (lower)
// layer. Gradients accumulate with +=, so the caller zeroes bucket
// gradients once per step.
func (m *model) backwardLayer(l int) {
	lay := &m.layers[l]
	in, out := lay.in, lay.out
	A, D := m.acts[l], m.delta
	s := 0
	for ; s+4 <= m.batch; s += 4 {
		d0, d1, d2, d3 := rows4(D, s, out)
		d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
		a0, a1, a2, a3 := rows4(A, s, in)
		for o, g0 := range d0 {
			g1, g2, g3 := d1[o], d2[o], d3[o]
			lay.db[o] = lay.db[o] + g0 + g1 + g2 + g3
			wg := lay.dW[o*in : (o+1)*in]
			a0, a1, a2, a3 := a0[:len(wg)], a1[:len(wg)], a2[:len(wg)], a3[:len(wg)]
			for i, v := range wg {
				wg[i] = v + g0*a0[i] + g1*a1[i] + g2*a2[i] + g3*a3[i]
			}
		}
	}
	for ; s < m.batch; s++ {
		drow := D[s*out : (s+1)*out]
		arow := A[s*in : (s+1)*in]
		for o, d := range drow {
			lay.db[o] += d
			wg := lay.dW[o*in : (o+1)*in]
			arow := arow[:len(wg)]
			for i, a := range arow {
				wg[i] += d * a
			}
		}
	}
	if l == 0 {
		return // no need to propagate into the input
	}
	// delta2 = (delta · W) ⊙ tanh'(input activation); tanh' = 1 - a².
	P := m.delta2[:m.batch*in]
	clear(P)
	s = 0
	for ; s+4 <= m.batch; s += 4 {
		d0, d1, d2, d3 := rows4(D, s, out)
		d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
		p0, p1, p2, p3 := rows4(P, s, in)
		for o, g0 := range d0 {
			g1, g2, g3 := d1[o], d2[o], d3[o]
			w := lay.W[o*in : (o+1)*in]
			p0, p1, p2, p3 := p0[:len(w)], p1[:len(w)], p2[:len(w)], p3[:len(w)]
			for i, wi := range w {
				p0[i] += g0 * wi
				p1[i] += g1 * wi
				p2[i] += g2 * wi
				p3[i] += g3 * wi
			}
		}
	}
	for ; s < m.batch; s++ {
		drow := D[s*out : (s+1)*out]
		prow := P[s*in : (s+1)*in]
		for o, d := range drow {
			w := lay.W[o*in : (o+1)*in]
			prow := prow[:len(w)]
			for i, wi := range w {
				prow[i] += d * wi
			}
		}
	}
	for i, a := range A[:len(P)] {
		P[i] *= 1 - a*a
	}
	m.delta, m.delta2 = m.delta2, m.delta
}
