package mapreduce

import (
	"sort"
	"strings"
)

// WordCount is the canonical MapReduce job — the paper's §7.2
// "Common Crawl Word Count" example: map emits (word, 1) per token,
// reduce sums.
type WordCount struct{}

// Map emits (word, 1) for every token of doc.
func (WordCount) Map(doc string, emit func(string, int)) {
	for _, w := range strings.Fields(doc) {
		emit(w, 1)
	}
}

// Reduce sums the values emitted for one word.
func (WordCount) Reduce(_ string, values []int) int {
	var s int
	for _, v := range values {
		s += v
	}
	return s
}

// CountWords runs the word count sequentially — the reference oracle
// the engine's distributed output is verified against in tests.
func CountWords(docs []string) map[string]int {
	out := make(map[string]int)
	for _, d := range docs {
		for _, w := range strings.Fields(d) {
			out[w]++
		}
	}
	return out
}

// TopWords returns the n most frequent words of a count map, ties
// broken lexicographically — a stable digest for reports.
func TopWords(counts map[string]int, n int) []string {
	type kv struct {
		k string
		v int
	}
	all := make([]kv, 0, len(counts))
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].k
	}
	return out
}
