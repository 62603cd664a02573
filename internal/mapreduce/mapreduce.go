// Package mapreduce implements a MapReduce framework on top of the MPI
// runtime — the Big-Data programming model the paper's introduction and
// related work position the modules against (Hadoop/Spark). The execution
// plan is the classic one: map over input splits, optional combiner,
// hash-partitioned shuffle (MPI_Alltoallv), sort, reduce, gather.
package mapreduce

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/mpi"
)

// KV is a key/value pair flowing between phases.
type KV struct {
	Key, Value string
}

// Mapper transforms one input split into intermediate pairs via emit.
type Mapper func(split string, emit func(key, value string)) error

// Reducer folds all values of one key into output pairs via emit.
type Reducer func(key string, values []string, emit func(key, value string)) error

// Job describes a MapReduce computation.
type Job struct {
	Name string
	Map  Mapper
	// Reduce is required; Combiner, when non-nil, pre-reduces map
	// output locally before the shuffle to cut communication volume
	// (the ablation bench quantifies the saving).
	Reduce   Reducer
	Combiner Reducer
}

// Stats reports one distributed run, measured on the calling rank.
type Stats struct {
	NP           int
	Splits       int
	MapOutKVs    int // this rank's map output pairs
	ShuffledKVs  int // pairs this rank received in the shuffle
	MapDur       time.Duration
	ShuffleDur   time.Duration
	ReduceDur    time.Duration
	CombinerUsed bool
}

// Run executes the job across the communicator. Splits are dealt
// round-robin to ranks; results are gathered onto rank 0, sorted by key
// (nil on other ranks).
func Run(c *mpi.Comm, job Job, splits []string) ([]KV, Stats, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: job %q needs Map and Reduce", job.Name)
	}
	p, r := c.Size(), c.Rank()
	st := Stats{NP: p, Splits: len(splits), CombinerUsed: job.Combiner != nil}

	// Map phase over this rank's splits.
	mapStart := time.Now()
	var mapOut []KV
	emit := func(k, v string) { mapOut = append(mapOut, KV{k, v}) }
	for i := r; i < len(splits); i += p {
		if err := job.Map(splits[i], emit); err != nil {
			return nil, st, fmt.Errorf("mapreduce: map split %d: %w", i, err)
		}
	}
	st.MapOutKVs = len(mapOut)
	if job.Combiner != nil {
		var err error
		mapOut, err = reduceByKey(mapOut, job.Combiner)
		if err != nil {
			return nil, st, fmt.Errorf("mapreduce: combiner: %w", err)
		}
	}
	st.MapDur = time.Since(mapStart)

	// Partition by key hash and shuffle.
	shuffleStart := time.Now()
	parts := make([][]KV, p)
	for _, kv := range mapOut {
		b := partition(kv.Key, p)
		parts[b] = append(parts[b], kv)
	}
	blocks := make([][]byte, p)
	for i, part := range parts {
		blocks[i] = marshalKVs(part)
	}
	recvd, err := mpi.Alltoallv(c, blocks)
	if err != nil {
		return nil, st, fmt.Errorf("mapreduce: shuffle: %w", err)
	}
	var mine []KV
	for src, blk := range recvd {
		kvs, err := unmarshalKVs(blk)
		if err != nil {
			return nil, st, fmt.Errorf("mapreduce: shuffle from rank %d: %w", src, err)
		}
		mine = append(mine, kvs...)
	}
	st.ShuffledKVs = len(mine)
	st.ShuffleDur = time.Since(shuffleStart)

	// Sort and reduce.
	reduceStart := time.Now()
	out, err := reduceByKey(mine, job.Reduce)
	if err != nil {
		return nil, st, fmt.Errorf("mapreduce: reduce: %w", err)
	}
	st.ReduceDur = time.Since(reduceStart)

	// Gather results onto rank 0.
	gathered, err := mpi.Gatherv(c, marshalKVs(out), 0)
	if err != nil {
		return nil, st, fmt.Errorf("mapreduce: gather: %w", err)
	}
	if r != 0 {
		return nil, st, nil
	}
	var all []KV
	for _, blk := range gathered {
		kvs, err := unmarshalKVs(blk)
		if err != nil {
			return nil, st, err
		}
		all = append(all, kvs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		return all[i].Value < all[j].Value
	})
	return all, st, nil
}

// reduceByKey groups pairs by key (sorting first) and applies the
// reducer to each group.
func reduceByKey(kvs []KV, reduce Reducer) ([]KV, error) {
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return kvs[i].Value < kvs[j].Value
	})
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	for i := 0; i < len(kvs); {
		j := i
		for j < len(kvs) && kvs[j].Key == kvs[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for k := i; k < j; k++ {
			values = append(values, kvs[k].Value)
		}
		if err := reduce(kvs[i].Key, values, emit); err != nil {
			return nil, fmt.Errorf("key %q: %w", kvs[i].Key, err)
		}
		i = j
	}
	return out, nil
}

// partition assigns a key to a reducer rank by FNV hash.
func partition(key string, p int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(p))
}

// marshalKVs encodes pairs as length-prefixed strings.
func marshalKVs(kvs []KV) []byte {
	var out []byte
	for _, kv := range kvs {
		out = binary.AppendUvarint(out, uint64(len(kv.Key)))
		out = append(out, kv.Key...)
		out = binary.AppendUvarint(out, uint64(len(kv.Value)))
		out = append(out, kv.Value...)
	}
	return out
}

// unmarshalKVs decodes marshalKVs output.
func unmarshalKVs(b []byte) ([]KV, error) {
	var out []KV
	for len(b) > 0 {
		klen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < klen {
			return nil, fmt.Errorf("mapreduce: corrupt key length")
		}
		b = b[n:]
		key := string(b[:klen])
		b = b[klen:]
		vlen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < vlen {
			return nil, fmt.Errorf("mapreduce: corrupt value length")
		}
		b = b[n:]
		value := string(b[:vlen])
		b = b[vlen:]
		out = append(out, KV{key, value})
	}
	return out, nil
}
