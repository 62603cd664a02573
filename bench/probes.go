package main

import (
	"time"

	"repro/internal/modules/comm"
	"repro/internal/mpi"
)

// Probes time public primitives on their own, so that a layer metric
// exists for the layers an op only ever exercises mixed with others.
// They belong to the traced run and never touch the end-to-end numbers.

// probes runs every probe; rounds scales how often each primitive is
// repeated (the smoke test passes a small number).
func probes(rounds int) (map[string]float64, error) {
	m := make(map[string]float64)
	noop := func(*mpi.Comm) error { return nil }
	for name, launch := range map[string]func(int, func(*mpi.Comm) error, ...mpi.Option) error{
		"mpi.launch_chan_ms": mpi.Run, "mpi.launch_tcp_ms": mpi.RunTCP,
	} {
		var ds []float64
		for i := 0; i < max(rounds/100, 3); i++ {
			t0 := time.Now()
			if err := launch(np, noop); err != nil {
				return nil, err
			}
			ds = append(ds, ms(time.Since(t0)))
		}
		m[name] = median(ds)
	}

	// envelope: 64 KiB of float64 through the wire codec.
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = float64(i)
	}
	var buf []byte
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		buf = mpi.AppendMarshal(buf[:0], xs)
	}
	m["envelope.marshal_ns_per_kb"] = float64(time.Since(t0)) / float64(rounds) / 64
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := mpi.UnmarshalInto(xs[:0], buf); err != nil {
			return nil, err
		}
	}
	m["envelope.unmarshal_ns_per_kb"] = float64(time.Since(t0)) / float64(rounds) / 64

	// transport: a ping-pong over each transport, small and large.
	for _, p := range []struct {
		name   string
		launch func(int, func(*mpi.Comm) error, ...mpi.Option) error
		bytes  int
		rounds int
	}{
		{"transport.chan_rtt_us_8b", mpi.Run, 8, rounds},
		{"transport.chan_rtt_us_64k", mpi.Run, 64 << 10, max(rounds/8, 1)},
		{"transport.tcp_rtt_us_8b", mpi.RunTCP, 8, rounds},
		{"transport.tcp_rtt_us_64k", mpi.RunTCP, 64 << 10, max(rounds/8, 1)},
	} {
		err := p.launch(2, func(c *mpi.Comm) error {
			res, err := comm.PingPong(c, p.rounds, p.bytes)
			if c.Rank() == 0 {
				m[p.name] = float64(res.AvgRTT) / float64(time.Microsecond)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// One world for the collective, nonblocking and one-sided probes.
	// Rank 0's clock, between barriers, is the collective's time.
	timed := func(c *mpi.Comm, name string, unit time.Duration, n int, call func() error) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			m[name] = float64(time.Since(t0)) / float64(n) / float64(unit)
		}
		return nil
	}
	err := mpi.Run(np, func(c *mpi.Comm) error {
		small, large, mid := make([]float64, 64), make([]float64, 32<<10), make([]float64, 16<<10)
		if err := timed(c, "collectives.allreduce_us_64", time.Microsecond, rounds, func() error {
			return mpi.AllreduceInto(c, small, mpi.OpSum)
		}); err != nil {
			return err
		}
		if err := timed(c, "collectives.allreduce_us_32k", time.Microsecond, max(rounds/20, 1), func() error {
			return mpi.AllreduceInto(c, large, mpi.OpSum)
		}); err != nil {
			return err
		}
		// 2 MB leave every rank: 512 KiB to each of the four.
		blocks := make([][]float64, np)
		for i := range blocks {
			blocks[i] = make([]float64, 64<<10)
		}
		if err := timed(c, "collectives.alltoallv_ms_2mb", time.Millisecond, max(rounds/100, 1), func() error {
			_, err := mpi.Alltoallv(c, blocks)
			return err
		}); err != nil {
			return err
		}
		if err := timed(c, "icoll.iallreduce_us_16k", time.Microsecond, max(rounds/20, 1), func() error {
			req, err := mpi.Iallreduce(c, mid, mpi.OpSum)
			if err != nil {
				return err
			}
			return req.Wait()
		}); err != nil {
			return err
		}
		win, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			word := make([]byte, 8)
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if err := win.Put(1, 0, word); err != nil {
					return err
				}
				if err := win.Flush(); err != nil {
					return err
				}
			}
			m["rma.put_flush_ns_8b"] = float64(time.Since(t0)) / float64(rounds)
		}
		return win.Free()
	})
	return m, err
}
