package perfmodel

import "fmt"

// Job is a program competing for a node's shared memory bandwidth in the
// co-scheduling model behind the Section IV-B quiz question and the
// "terrible twins" discussion (de Blanche & Lundqvist).
type Job struct {
	Name   string
	Kernel Kernel
	Ranks  int // cores the job occupies on the node
}

// BandwidthDemand estimates the bytes/s the job would draw if unimpeded:
// the per-core ceiling times occupied cores, capped by what the kernel
// actually needs given it is also compute-limited.
func (m Machine) BandwidthDemand(j Job) float64 {
	if j.Kernel.Bytes == 0 {
		return 0
	}
	// Time the kernel takes if only compute-limited on j.Ranks cores.
	computeSec := j.Kernel.Flops / (float64(j.Ranks) * m.FlopsPerCore)
	hwCeiling := minf(float64(j.Ranks)*m.CoreBW, m.NodeBW)
	if computeSec == 0 {
		return hwCeiling
	}
	needed := j.Kernel.Bytes / computeSec
	return minf(needed, hwCeiling)
}

// CoSchedule predicts the slowdown factor each job suffers when the two
// run on the same node simultaneously, versus running on a dedicated
// node. Cores are not shared (the paper notes the cluster never shares
// cores between users); only memory bandwidth is contended. A slowdown of
// 1.0 means no degradation.
func (m Machine) CoSchedule(a, b Job) (slowA, slowB float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if a.Ranks+b.Ranks > m.CoresPerNode {
		return 0, 0, fmt.Errorf("perfmodel: jobs need %d cores, node has %d", a.Ranks+b.Ranks, m.CoresPerNode)
	}
	demA, demB := m.BandwidthDemand(a), m.BandwidthDemand(b)
	total := demA + demB
	shareA, shareB := 1.0, 1.0
	if total > m.NodeBW && total > 0 {
		// Proportional sharing of the saturated bus.
		shareA = minf(1, demA/total*m.NodeBW/maxf(demA, 1))
		shareB = minf(1, demB/total*m.NodeBW/maxf(demB, 1))
	}
	slowA, err = m.slowdownAtShare(a, shareA)
	if err != nil {
		return 0, 0, err
	}
	slowB, err = m.slowdownAtShare(b, shareB)
	if err != nil {
		return 0, 0, err
	}
	return slowA, slowB, nil
}

// slowdownAtShare returns T(share)/T(dedicated) for the job on one node.
func (m Machine) slowdownAtShare(j Job, share float64) (float64, error) {
	dedicated, err := m.Time(j.Kernel, Placement{Ranks: j.Ranks, Nodes: 1})
	if err != nil {
		return 0, err
	}
	contended, err := m.Time(j.Kernel, Placement{Ranks: j.Ranks, Nodes: 1, BandwidthShare: share})
	if err != nil {
		return 0, err
	}
	if dedicated == 0 {
		return 1, nil
	}
	return float64(contended) / float64(dedicated), nil
}

// CoScheduleChoice answers the Section IV-B quiz question mechanically.
// The student runs `mine` on both nodes; another user's job `theirs` must
// be placed on one of them. The function returns the index (0 or 1) of
// the program/node pairing that minimizes degradation to the student's
// programs, along with the predicted slowdowns of each choice.
//
// programs[i] is the student's program running on node i. Sharing node i
// means programs[i] contends with theirs.
func (m Machine) CoScheduleChoice(programs [2]Job, theirs Job) (choice int, slowdowns [2]float64, err error) {
	for i := 0; i < 2; i++ {
		s, _, err := m.CoSchedule(programs[i], theirs)
		if err != nil {
			return 0, slowdowns, err
		}
		slowdowns[i] = s
	}
	if slowdowns[1] < slowdowns[0] {
		return 1, slowdowns, nil
	}
	return 0, slowdowns, nil
}

// MemoryBoundKernel builds a kernel with low arithmetic intensity (the
// Figure 1 "Program 1" shape): ai flops per byte over the given working
// set.
func MemoryBoundKernel(name string, bytes, ai float64) Kernel {
	return Kernel{Name: name, Flops: bytes * ai, Bytes: bytes}
}

// ComputeBoundKernel builds a kernel with high arithmetic intensity (the
// Figure 1 "Program 2" shape).
func ComputeBoundKernel(name string, flops, ai float64) Kernel {
	return Kernel{Name: name, Flops: flops, Bytes: flops / ai}
}

// ScalingCurve evaluates the modeled strong-scaling curve at the given
// rank counts and returns (ranks, speedup) pairs, the series plotted in
// the Figure 1 reproduction.
func (m Machine) ScalingCurve(k Kernel, ranks []int, nodes int) (map[int]float64, error) {
	t1, err := m.Time(k, Placement{Ranks: 1, Nodes: 1})
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(ranks))
	for _, p := range ranks {
		n := nodes
		if p < n {
			n = p
		}
		tp, err := m.Time(k, Placement{Ranks: p, Nodes: n})
		if err != nil {
			return nil, err
		}
		out[p] = float64(t1) / float64(tp)
	}
	return out, nil
}
