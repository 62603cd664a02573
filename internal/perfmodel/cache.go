// Package perfmodel provides the performance environment the paper's
// cluster supplied: a set-associative cache simulator standing in for the
// `perf` hardware counters of Module 2, a roofline machine model that
// produces the compute-bound and memory-bound speedup curves of Figure 1
// and the Module 4 resource-allocation experiments, and a memory-bandwidth
// co-scheduling interference model for the Section IV-B "terrible twins"
// quiz scenario.
package perfmodel

import (
	"fmt"
)

// Cache is a set-associative cache with LRU replacement. Addresses are
// byte addresses; a simulation maps array elements to addresses and plays
// the exact access stream of a kernel through the cache.
type Cache struct {
	lineSize uint64
	sets     uint64
	ways     int
	tags     [][]uint64 // tags[set] is LRU-ordered, most recent first

	accesses int64
	misses   int64
}

// NewCache builds a cache of sizeBytes with the given line size and
// associativity. sizeBytes must be divisible by lineSize*ways and the
// resulting set count must be a power of two.
func NewCache(sizeBytes, lineSize, ways int) (*Cache, error) {
	if sizeBytes <= 0 || lineSize <= 0 || ways <= 0 {
		return nil, fmt.Errorf("perfmodel: cache parameters must be positive (size=%d line=%d ways=%d)", sizeBytes, lineSize, ways)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("perfmodel: line size %d must be a power of two", lineSize)
	}
	if sizeBytes%(lineSize*ways) != 0 {
		return nil, fmt.Errorf("perfmodel: size %d not divisible by line×ways = %d", sizeBytes, lineSize*ways)
	}
	sets := sizeBytes / (lineSize * ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("perfmodel: set count %d must be a power of two", sets)
	}
	c := &Cache{lineSize: uint64(lineSize), sets: uint64(sets), ways: ways}
	c.tags = make([][]uint64, sets)
	return c, nil
}

// Access simulates one access to the byte address and reports a hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	line := addr / c.lineSize
	set := line & (c.sets - 1)
	tag := line / c.sets
	ways := c.tags[set]
	for i, t := range ways {
		if t == tag {
			// Move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	c.misses++
	if len(ways) < c.ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = tag
	c.tags[set] = ways
	return false
}

// AccessRange simulates a sequential access to n bytes starting at addr,
// touching each line once.
func (c *Cache) AccessRange(addr uint64, n int) {
	end := addr + uint64(n)
	for a := addr &^ (c.lineSize - 1); a < end; a += c.lineSize {
		c.Access(a)
	}
}

// Accesses returns the number of accesses observed.
func (c *Cache) Accesses() int64 { return c.accesses }

// Misses returns the number of misses observed.
func (c *Cache) Misses() int64 { return c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = nil
	}
	c.accesses, c.misses = 0, 0
}
