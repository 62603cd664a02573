package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// WordCount is the canonical MapReduce job: token frequencies across all
// splits. Tokens are lower-cased maximal letter runs.
func WordCount() Job {
	return Job{
		Name: "wordcount",
		Map: func(split string, emit func(k, v string)) error {
			for _, w := range Tokenize(split) {
				emit(w, "1")
			}
			return nil
		},
		Reduce:   sumReducer,
		Combiner: sumReducer,
	}
}

// sumReducer adds integer-encoded values.
func sumReducer(key string, values []string, emit func(k, v string)) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("non-integer count %q", v)
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
	return nil
}

// Tokenize splits text into lower-cased maximal letter runs.
func Tokenize(text string) []string {
	var out []string
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, strings.ToLower(text[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, strings.ToLower(text[start:]))
	}
	return out
}
