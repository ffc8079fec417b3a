package ir

import "math"

// BM25Params are the free parameters of the Robertson–Walker BM25
// weighting scheme.
type BM25Params struct {
	K1 float64
	B  float64
}

// DefaultBM25 is the conventional parameterization.
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75} }

// idf computes the BM25 IDF with the +1 smoothing that keeps it
// positive for terms occurring in more than half the collection.
func (ix *Index) idf(term string) float64 {
	n := float64(ix.N())
	df := float64(ix.DF(term))
	if n == 0 || df == 0 {
		return 0
	}
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// BM25 scores one document against a bag of query terms.
func (ix *Index) BM25(p BM25Params, doc DocKey, terms []string) float64 {
	return ix.BM25Scorer(p, terms)(doc)
}

// BM25Scorer returns BM25 against one bag of query terms as a function
// of the document. It reads the collection statistics (average length,
// and N and DF through each term's IDF) once, not per document, so a
// pass over a term's candidates does no repeated work; every score is
// bit-identical to BM25's.
func (ix *Index) BM25Scorer(p BM25Params, terms []string) func(doc DocKey) float64 {
	avg := ix.AvgDocLen()
	if avg == 0 {
		return func(DocKey) float64 { return 0 }
	}
	idf := make([]float64, len(terms))
	for i, t := range terms {
		idf[i] = ix.idf(t)
	}
	return func(doc DocKey) float64 {
		dl := float64(ix.DocLen(doc))
		score := 0.0
		for i, t := range terms {
			tf := float64(ix.TF(t, doc))
			if tf == 0 {
				continue
			}
			score += idf[i] * (tf * (p.K1 + 1)) / (tf + p.K1*(1-p.B+p.B*dl/avg))
		}
		return score
	}
}

// BM25All computes the BM25 score of every document containing at least
// one of the terms (conjunctive filtering is up to the caller).
func (ix *Index) BM25All(p BM25Params, terms []string) map[DocKey]float64 {
	out := make(map[DocKey]float64)
	avg := ix.AvgDocLen()
	if avg == 0 {
		return out
	}
	for _, t := range terms {
		idf := ix.idf(t)
		if idf == 0 {
			continue
		}
		for _, post := range ix.postings[t] {
			tf := float64(post.TF)
			dl := float64(ix.DocLen(post.Doc))
			out[post.Doc] += idf * (tf * (p.K1 + 1)) / (tf + p.K1*(1-p.B+p.B*dl/avg))
		}
	}
	return out
}

// NormalizedBM25 computes per-keyword normalized scores in [0, 1]: each
// containing document's BM25 score divided by the collection maximum for
// that term set. This is the normalization Section III requires of IRS.
// Documents not containing any term are absent from the map.
func (ix *Index) NormalizedBM25(p BM25Params, terms []string) map[DocKey]float64 {
	raw := ix.BM25All(p, terms)
	max := 0.0
	for _, s := range raw {
		if s > max {
			max = s
		}
	}
	if max == 0 {
		return raw
	}
	for k, s := range raw {
		raw[k] = s / max
	}
	return raw
}

// TFIDF scores one document with the classic lnc.ltc-style weighting
// (log tf times idf); provided as the alternative IRS function the
// paper's Section III allows ("popular IR functions [17], [19], [20]").
func (ix *Index) TFIDF(doc DocKey, terms []string) float64 {
	score := 0.0
	n := float64(ix.N())
	for _, t := range terms {
		tf := float64(ix.TF(t, doc))
		df := float64(ix.DF(t))
		if tf == 0 || df == 0 {
			continue
		}
		score += (1 + math.Log(tf)) * math.Log(n/df)
	}
	return score
}
