package mpi

import (
	"fmt"
	"sort"
)

// Split partitions the communicator by color (MPI_Comm_split). Every rank
// must call Split collectively; ranks passing the same color form a new
// communicator, ordered by (key, parent rank). A negative color returns a
// nil communicator for that rank (MPI_UNDEFINED), though the rank still
// participates in the collective exchange.
//
// Module 4's resource-allocation activity uses Split to model node-local
// groups: p ranks on one node versus p ranks across two nodes.
func (c *Comm) Split(color, key int) (*Comm, error) {
	p := len(c.members)
	c.splitSeq++
	// Exchange (color, key) pairs so every rank can compute every group.
	pairs, err := allgather(c, []int64{int64(color), int64(key)})
	if err != nil {
		return nil, fmt.Errorf("mpi: Split exchange: %w", err)
	}
	if color < 0 {
		return nil, nil
	}
	type member struct{ rank, color, key int }
	var group []member
	for r := 0; r < p; r++ {
		col := int(pairs[2*r])
		if col == color {
			group = append(group, member{rank: r, color: col, key: int(pairs[2*r+1])})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	members := make([]int, len(group))
	myRank := -1
	for i, m := range group {
		members[i] = c.members[m.rank] // world rank
		if m.rank == c.rank {
			myRank = i
		}
	}
	ctx := c.world.ctxFor(ctxKey{parentCtx: c.ctx, splitSeq: c.splitSeq, color: color})
	return &Comm{
		world:     c.world,
		worldRank: c.worldRank,
		rank:      myRank,
		members:   members,
		ctx:       ctx,
		mb:        c.mb,
	}, nil
}
