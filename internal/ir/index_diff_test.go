package ir

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refIndex is the naive reference for Index: per-document term counts
// in plain maps, every statistic recomputed by scanning them. It pins
// the sorted-postings invariant TF's binary search relies on: any Add
// order that broke it would make the two disagree.
type refIndex struct {
	tf  map[DocKey]map[string]int
	len map[DocKey]int
}

func newRefIndex() *refIndex {
	return &refIndex{tf: map[DocKey]map[string]int{}, len: map[DocKey]int{}}
}

func (r *refIndex) add(doc DocKey, tokens []string) {
	if r.tf[doc] == nil {
		r.tf[doc] = map[string]int{}
	}
	for _, t := range tokens {
		r.tf[doc][t]++
	}
	r.len[doc] += len(tokens)
}

func (r *refIndex) df(term string) int {
	n := 0
	for _, terms := range r.tf {
		if terms[term] > 0 {
			n++
		}
	}
	return n
}

func (r *refIndex) postings(term string) []Posting {
	out := []Posting{}
	for doc, terms := range r.tf {
		if c := terms[term]; c > 0 {
			out = append(out, Posting{Doc: doc, TF: int32(c)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

func (r *refIndex) containingAll(terms []string) []DocKey {
	if len(terms) == 0 {
		return nil
	}
	var out []DocKey
	for doc, tf := range r.tf {
		all := true
		for _, t := range terms {
			if tf[t] == 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, doc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bm25 spells out the BM25 of bm25.go over the reference counts, in
// the same operation order, so the comparison can be exact.
func (r *refIndex) bm25(p BM25Params, doc DocKey, terms []string) float64 {
	total := 0
	for _, l := range r.len {
		total += l
	}
	if len(r.len) == 0 || total == 0 {
		return 0
	}
	n := float64(len(r.len))
	avg := float64(total) / n
	dl := float64(r.len[doc])
	score := 0.0
	for _, t := range terms {
		tf := float64(r.tf[doc][t])
		if tf == 0 {
			continue
		}
		df := float64(r.df(t))
		idf := 0.0
		if df > 0 {
			idf = math.Log(1 + (n-df+0.5)/(df+0.5))
		}
		score += idf * (tf * (p.K1 + 1)) / (tf + p.K1*(1-p.B+p.B*dl/avg))
	}
	return score
}

// TestIndexMatchesNaiveReference feeds random Add sequences — long
// ascending runs (the builders' shape), repeated keys that must
// accumulate, out-of-order keys that must be inserted mid-list, and
// empty documents — to Index and to the map-based reference, then
// checks every read the scorers use agrees exactly.
func TestIndexMatchesNaiveReference(t *testing.T) {
	vocab := []string{"asthma", "bronchial", "theophylline", "cardiac", "arrest", "a", "b", "c"}
	params := DefaultBM25()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix, ref := NewIndex(), newRefIndex()
		next := DocKey(0)
		for op := 0; op < 120; op++ {
			var doc DocKey
			switch r := rng.Intn(10); {
			case r < 6: // ascending: the common builder pattern
				doc = next
				next += DocKey(1 + rng.Intn(3))
			case r < 8: // repeat a recent key
				doc = next - DocKey(1+rng.Intn(3))
				if doc < 0 {
					doc = 0
				}
			default: // out of order, anywhere up to the frontier
				doc = DocKey(rng.Intn(int(next) + 1))
			}
			tokens := make([]string, rng.Intn(6))
			for i := range tokens {
				tokens[i] = vocab[rng.Intn(len(vocab))]
			}
			ix.Add(doc, tokens)
			ref.add(doc, tokens)
		}

		if got, want := ix.N(), len(ref.len); got != want {
			t.Fatalf("seed %d: N = %d, want %d", seed, got, want)
		}
		terms := append([]string{"absent"}, vocab...)
		for _, term := range terms {
			if got, want := ix.DF(term), ref.df(term); got != want {
				t.Fatalf("seed %d: DF(%q) = %d, want %d", seed, term, got, want)
			}
			if got, want := ix.Postings(term), ref.postings(term); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Postings(%q) = %v, want %v", seed, term, got, want)
			}
		}
		for doc := DocKey(-1); doc <= next+1; doc++ {
			if got, want := ix.DocLen(doc), ref.len[doc]; got != want {
				t.Fatalf("seed %d: DocLen(%d) = %d, want %d", seed, doc, got, want)
			}
			for _, term := range terms {
				if got, want := ix.TF(term, doc), ref.tf[doc][term]; got != want {
					t.Fatalf("seed %d: TF(%q, %d) = %d, want %d", seed, term, doc, got, want)
				}
			}
			for q := 0; q < 4; q++ {
				query := make([]string, 1+rng.Intn(3))
				for i := range query {
					query[i] = terms[rng.Intn(len(terms))]
				}
				if got, want := ix.BM25(params, doc, query), ref.bm25(params, doc, query); got != want {
					t.Fatalf("seed %d: BM25(%d, %v) = %v, want %v", seed, doc, query, got, want)
				}
			}
		}
		for q := 0; q < 20; q++ {
			query := make([]string, 1+rng.Intn(3))
			for i := range query {
				query[i] = terms[rng.Intn(len(terms))]
			}
			if got, want := ix.DocsContainingAll(query), ref.containingAll(query); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: DocsContainingAll(%v) = %v, want %v", seed, query, got, want)
			}
		}
	}
}
