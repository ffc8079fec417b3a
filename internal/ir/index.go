// Package ir implements the information-retrieval substrate of
// XOntoRank: a bag-of-words inverted index over small "documents"
// (individual XML elements, or ontology concepts viewed as documents)
// and the BM25 and TF-IDF scoring functions. The paper uses BM25
// (Robertson-Walker) as its IRS function; scores are normalized to
// [0, 1] per keyword, as Section III requires.
package ir

import (
	"sort"
)

// DocKey identifies one scored unit. XOntoRank views every XML element
// as a document (keyed by a dense element ordinal) and, separately,
// every ontology concept as a document (keyed by its concept ID).
type DocKey int64

// Posting records one document containing a term.
type Posting struct {
	Doc DocKey
	TF  int32
}

// Index is an in-memory inverted index with the collection statistics
// BM25 needs (document frequencies, document lengths, average length).
// Every term's postings are kept sorted by document key, so TF is a
// binary search and Postings needs no sort.
type Index struct {
	postings map[string][]Posting
	docLen   map[DocKey]int
	totalLen int64

	// global, when non-nil, overlays collection-wide statistics on a
	// partition-local index so BM25-family scores match the unsharded
	// corpus exactly (see SetGlobalStats / SetGlobalStatsView in
	// stats.go).
	global StatsView
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		docLen:   make(map[DocKey]int),
	}
}

// Add indexes a document as a bag of tokens. Adding the same key twice
// replaces nothing — callers must add each document once; a second Add
// with the same key extends the previous one (tokens accumulate). Keys
// may arrive in any order, but ascending keys (what the index builders
// assign) are the cheap case: each posting lands at the tail of its
// list.
func (ix *Index) Add(doc DocKey, tokens []string) {
	if len(tokens) == 0 {
		if _, ok := ix.docLen[doc]; !ok {
			ix.docLen[doc] = 0
		}
		return
	}
	counts := make(map[string]int, len(tokens))
	for _, t := range tokens {
		counts[t]++
	}
	for t, c := range counts {
		list := ix.postings[t]
		n := len(list)
		switch {
		case n == 0 || list[n-1].Doc < doc:
			ix.postings[t] = append(list, Posting{Doc: doc, TF: int32(c)})
		case list[n-1].Doc == doc:
			list[n-1].TF += int32(c)
		default:
			i := search(list, doc)
			if list[i].Doc == doc {
				list[i].TF += int32(c)
				continue
			}
			list = append(list, Posting{})
			copy(list[i+1:], list[i:])
			list[i] = Posting{Doc: doc, TF: int32(c)}
			ix.postings[t] = list
		}
	}
	ix.docLen[doc] += len(tokens)
	ix.totalLen += int64(len(tokens))
}

// search returns the index of the first posting of list whose key is
// >= doc (len(list) when there is none).
func search(list []Posting, doc DocKey) int {
	return sort.Search(len(list), func(i int) bool { return list[i].Doc >= doc })
}

// N is the number of indexed documents (collection-global when a stats
// overlay is installed).
func (ix *Index) N() int {
	if ix.global != nil {
		return ix.global.StatsN()
	}
	return len(ix.docLen)
}

// DF is the document frequency of a term (collection-global when a
// stats overlay is installed).
func (ix *Index) DF(term string) int {
	if ix.global != nil {
		return ix.global.StatsDF(term)
	}
	return len(ix.postings[term])
}

// TF returns the term frequency of term in doc (0 if absent).
func (ix *Index) TF(term string, doc DocKey) int {
	list := ix.postings[term]
	if i := search(list, doc); i < len(list) && list[i].Doc == doc {
		return int(list[i].TF)
	}
	return 0
}

// DocLen returns the token length of a document.
func (ix *Index) DocLen(doc DocKey) int { return ix.docLen[doc] }

// AvgDocLen is the mean document length of the collection
// (collection-global when a stats overlay is installed).
func (ix *Index) AvgDocLen() float64 {
	if ix.global != nil {
		n := ix.global.StatsN()
		if n == 0 {
			return 0
		}
		return float64(ix.global.StatsTotalLen()) / float64(n)
	}
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docLen))
}

// Postings returns the postings of a term sorted by document key. The
// returned slice is a copy.
func (ix *Index) Postings(term string) []Posting {
	return append([]Posting{}, ix.postings[term]...)
}

// Vocabulary returns every indexed term, sorted.
func (ix *Index) Vocabulary() []string {
	out := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DocsContainingAll returns the keys of documents containing every one
// of the terms, sorted (the rarest term's postings are). Used for conjunctive candidate generation
// before phrase verification.
func (ix *Index) DocsContainingAll(terms []string) []DocKey {
	if len(terms) == 0 {
		return nil
	}
	// Start from the rarest term to keep intersections small.
	rarest := terms[0]
	for _, t := range terms[1:] {
		if ix.DF(t) < ix.DF(rarest) {
			rarest = t
		}
	}
	var out []DocKey
	for _, p := range ix.postings[rarest] {
		all := true
		for _, t := range terms {
			if t == rarest {
				continue
			}
			if ix.TF(t, p.Doc) == 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, p.Doc)
		}
	}
	return out
}
