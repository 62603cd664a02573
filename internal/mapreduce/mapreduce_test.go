package mapreduce

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
)

// errStop is what a rank returns, once it has seen the error under
// test, to stop the world and release peers blocked in a collective.
var errStop = errors.New("stop the world")

var corpus = []string{
	"the quick brown fox jumps over the lazy dog",
	"the dog barks; the fox runs",
	"pack my box with five dozen liquor jugs",
	"sphinx of black quartz, judge my vow",
	"the five boxing wizards jump quickly",
}

func TestWordCountSequential(t *testing.T) {
	out, err := Sequential(WordCount(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	counts := kvMap(out)
	if counts["the"] != "5" {
		t.Fatalf("the → %q, want 5", counts["the"])
	}
	if counts["fox"] != "2" || counts["dog"] != "2" {
		t.Fatalf("fox/dog: %q/%q", counts["fox"], counts["dog"])
	}
	if counts["sphinx"] != "1" {
		t.Fatalf("sphinx → %q", counts["sphinx"])
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	want, err := Sequential(WordCount(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 3, 4, 7} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			var got []KV
			err := mpi.Run(np, func(c *mpi.Comm) error {
				out, _, err := Run(c, WordCount(), corpus)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					got = out
				} else if out != nil {
					return fmt.Errorf("non-root rank received results")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("distributed %v != sequential %v", got, want)
			}
		})
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	// A large corpus with few distinct words: the combiner should slash
	// shuffled pair counts.
	rng := rand.New(rand.NewSource(1))
	words := []string{"alpha", "beta", "gamma", "delta"}
	var splits []string
	for i := 0; i < 40; i++ {
		var sb strings.Builder
		for j := 0; j < 200; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		splits = append(splits, sb.String())
	}
	shuffled := func(useCombiner bool) int {
		job := WordCount()
		if !useCombiner {
			job.Combiner = nil
		}
		var n int
		err := mpi.Run(4, func(c *mpi.Comm) error {
			_, st, err := Run(c, job, splits)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				n = st.ShuffledKVs
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	with := shuffled(true)
	without := shuffled(false)
	if with*10 > without {
		t.Fatalf("combiner ineffective: %d vs %d shuffled pairs", with, without)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Sequential(Job{Name: "empty"}, corpus); err == nil {
		t.Fatal("job without map/reduce accepted")
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, _, err := Run(c, Job{Name: "empty"}, corpus)
		if err == nil {
			return fmt.Errorf("job without map/reduce accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyInputs(t *testing.T) {
	var got []KV
	err := mpi.Run(2, func(c *mpi.Comm) error {
		out, _, err := Run(c, WordCount(), nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
}

func TestMoreRanksThanSplits(t *testing.T) {
	want, _ := Sequential(WordCount(), corpus[:2])
	var got []KV
	err := mpi.Run(8, func(c *mpi.Comm) error {
		out, _, err := Run(c, WordCount(), corpus[:2])
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v != %v", got, want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(pairs map[string]string) bool {
		var kvs []KV
		for k, v := range pairs {
			kvs = append(kvs, KV{k, v})
		}
		got, err := unmarshalKVs(marshalKVs(kvs))
		if err != nil {
			return false
		}
		if len(got) != len(kvs) {
			return false
		}
		back := make(map[string]string, len(got))
		for _, kv := range got {
			back[kv.Key] = kv.Value
		}
		return reflect.DeepEqual(back, pairs) || (len(pairs) == 0 && len(back) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCorruptInput(t *testing.T) {
	if _, err := unmarshalKVs([]byte{0xff}); err == nil {
		t.Fatal("corrupt input accepted")
	}
	good := marshalKVs([]KV{{"key", "value"}})
	if _, err := unmarshalKVs(good[:len(good)-1]); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 123 foo-bar")
	want := []string{"hello", "world", "foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokenize %v", got)
	}
	if Tokenize("") != nil {
		t.Fatal("empty text tokenized to non-nil")
	}
}

func TestPartitionStableAndInRange(t *testing.T) {
	for _, p := range []int{1, 2, 7, 16} {
		for _, key := range []string{"", "a", "hello", "MPI"} {
			b := partition(key, p)
			if b < 0 || b >= p {
				t.Fatalf("partition(%q, %d) = %d", key, p, b)
			}
			if b != partition(key, p) {
				t.Fatal("partition not deterministic")
			}
		}
	}
}

func kvMap(kvs []KV) map[string]string {
	m := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Value
	}
	return m
}

func TestRunOverTCP(t *testing.T) {
	want, err := Sequential(WordCount(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	var got []KV
	err = mpi.RunTCP(3, func(c *mpi.Comm) error {
		out, _, err := Run(c, WordCount(), corpus)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tcp result differs from sequential")
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	job := WordCount()
	job.Combiner = nil
	job.Reduce = func(key string, values []string, emit func(k, v string)) error {
		if key == "fox" {
			return fmt.Errorf("reducer exploded on %q", key)
		}
		return nil
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, _, err := Run(c, job, corpus)
		if err == nil {
			return fmt.Errorf("reducer error swallowed")
		}
		if !strings.Contains(err.Error(), "fox") {
			return fmt.Errorf("unhelpful error: %v", err)
		}
		// Only the rank owning "fox" fails; returning an error aborts
		// the world, so peers blocked in the gather are released.
		return errStop
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("the failing rank did not see the reducer's error: %v", err)
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	job := WordCount()
	job.Map = func(split string, emit func(k, v string)) error {
		return fmt.Errorf("mapper exploded")
	}
	if _, err := Sequential(job, corpus); err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Fatalf("mapper error: %v", err)
	}
}

// Sequential executes the job on one process — the reference the tests
// compare distributed runs against.
func Sequential(job Job, splits []string) ([]KV, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mapreduce: job %q needs Map and Reduce", job.Name)
	}
	var mapOut []KV
	emit := func(k, v string) { mapOut = append(mapOut, KV{k, v}) }
	for i, split := range splits {
		if err := job.Map(split, emit); err != nil {
			return nil, fmt.Errorf("mapreduce: map split %d: %w", i, err)
		}
	}
	out, err := reduceByKey(mapOut, job.Reduce)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out, nil
}
