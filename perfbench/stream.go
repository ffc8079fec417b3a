package main

import (
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// request is one /search call of the stream.
type request struct {
	Strategy string
	Query    string
	K        int
	Offset   int
}

// path renders the request as the /search URL path and query.
func (r request) path() string {
	v := url.Values{}
	v.Set("q", r.Query)
	v.Set("k", strconv.Itoa(r.K))
	if r.Offset > 0 {
		v.Set("offset", strconv.Itoa(r.Offset))
	}
	v.Set("strategy", r.Strategy)
	return "/search?" + v.Encode()
}

// strategyNames is the order of streamConfig.StrategyWeights.
var strategyNames = [4]string{"XRANK", "Graph", "Taxonomy", "Relationships"}

// streamConfig shapes a request stream.
type streamConfig struct {
	// MaxKeywords bounds the keywords (tokens or phrases) per query;
	// each query has 1..MaxKeywords.
	MaxKeywords int
	// PhraseShare is the chance that a keyword is a quoted concept
	// phrase rather than an indexed token.
	PhraseShare float64
	// PhrasePool, when > 0, restricts phrases to that many (drawn once
	// per seed); 0 draws uniformly from every concept phrase.
	PhrasePool int
	// ZipfS and ZipfV skew token draws: rank r has weight (ZipfV+r)^-ZipfS,
	// ranks ordered by descending corpus document frequency — common
	// terms are asked for most, and the hot set is alike for every seed.
	ZipfS, ZipfV float64
	// StrategyWeights weights XRANK, Graph, Taxonomy, Relationships.
	StrategyWeights [4]float64
}

// stream is a deterministic, unbounded request sequence: request i
// depends only on the seed, the configuration, and i, so the set of
// requests issued is reproducible.
type stream struct {
	seed    uint64
	cfg     streamConfig
	tokens  []string // Zipf rank order
	phrases []string
}

// newStream ranks the server's indexed vocabulary by df (the number of
// corpus elements holding a token; ties by name) and draws the phrase
// pool from the ontology's concept phrases with the seed.
func newStream(seed int64, cfg streamConfig, vocab []string, df func(string) int, conceptPhrases []string) *stream {
	tokens := append([]string(nil), vocab...)
	sort.SliceStable(tokens, func(i, j int) bool {
		di, dj := df(tokens[i]), df(tokens[j])
		return di > dj || di == dj && tokens[i] < tokens[j]
	})
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	phrases := append([]string(nil), conceptPhrases...)
	r.Shuffle(len(phrases), func(i, j int) { phrases[i], phrases[j] = phrases[j], phrases[i] })
	if cfg.PhrasePool > 0 && cfg.PhrasePool < len(phrases) {
		phrases = phrases[:cfg.PhrasePool]
	}
	return &stream{seed: uint64(seed), cfg: cfg, tokens: tokens, phrases: phrases}
}

// at returns request i.
func (s *stream) at(i uint64) request {
	r := rand.New(rand.NewPCG(s.seed, i+1))
	zipf := rand.NewZipf(r, s.cfg.ZipfS, s.cfg.ZipfV, uint64(len(s.tokens)-1))
	n := 1 + r.IntN(s.cfg.MaxKeywords)
	parts := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for tries := 0; len(parts) < n && tries < 16*n; tries++ {
		var kw string
		if len(s.phrases) > 0 && r.Float64() < s.cfg.PhraseShare {
			kw = `"` + s.phrases[r.IntN(len(s.phrases))] + `"`
		} else {
			kw = s.tokens[zipf.Uint64()]
		}
		if seen[kw] {
			continue
		}
		seen[kw] = true
		parts = append(parts, kw)
	}
	req := request{Query: strings.Join(parts, " "), K: 10}
	req.Strategy = strategyNames[pickWeighted(r.Float64(), s.cfg.StrategyWeights[:])]
	switch u := r.Float64(); {
	case u < 0.10:
		req.K = 100
	case u < 0.20:
		req.Offset = 10 * (1 + r.IntN(3))
	}
	return req
}

// pickWeighted maps u in [0,1) onto an index with the given weights.
func pickWeighted(u float64, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u *= total
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}
