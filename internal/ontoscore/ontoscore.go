// Package ontoscore computes the semantic relevance of ontology
// concepts to query keywords — the OntoScore of the paper's Sections IV
// and VI. Three strategies are provided:
//
//   - Graph: the ontology as an undirected, unlabeled graph; authority
//     decays by a constant factor per edge (Section IV-A).
//   - Taxonomy: only is-a links; flowing to a superclass is free (the
//     paper: "Taxonomy does not penalize the ontology expansion when
//     following is-a (parent) edges"), flowing to a direct subclass
//     splits the score by the parent's subclass count, as in
//     ObjectRank's authority-flow distribution (Section IV-B).
//   - Relationships: the description-logic view; attribute
//     relationships are traversed through virtual existential role
//     restrictions, each dotted link decaying the score by beta, with
//     the restriction's in-degree splitting flow toward subjects
//     (Sections IV-C and VI-C). Is-a edges behave as in Taxonomy.
//
// All strategies share one engine: a merged best-first expansion from
// every concept containing the keyword (the paper's Algorithm 1 with
// the Observation-1 optimization), pruned below a score threshold.
// Seeds are scored by normalized BM25 over concepts-viewed-as-documents.
package ontoscore

import (
	"context"
	"fmt"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// Strategy selects an OntoScore computation method. StrategyNone is the
// XRANK baseline: no ontological expansion at all.
type Strategy int

const (
	StrategyNone Strategy = iota
	StrategyGraph
	StrategyTaxonomy
	StrategyRelationships
)

var strategyNames = map[Strategy]string{
	StrategyNone:          "XRANK",
	StrategyGraph:         "Graph",
	StrategyTaxonomy:      "Taxonomy",
	StrategyRelationships: "Relationships",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy by its display name.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("ontoscore: unknown strategy %q", name)
}

// Strategies lists every strategy in presentation order (the four
// columns of the paper's tables).
func Strategies() []Strategy {
	return []Strategy{StrategyNone, StrategyGraph, StrategyTaxonomy, StrategyRelationships}
}

// Params are the knobs of the OntoScore computation; the paper's
// experiments set Decay = 0.5, Threshold = 0.1 and beta = 0.5.
type Params struct {
	// Decay is the per-edge attenuation of the Graph strategy.
	Decay float64
	// Beta is the attenuation applied per dotted link when traversing
	// an existential role restriction (Relationships strategy).
	Beta float64
	// Threshold prunes expansion: concepts scoring below it are neither
	// recorded nor expanded from.
	Threshold float64
	// BM25 parameterizes the IRS function over ontology concepts.
	BM25 ir.BM25Params
}

// DefaultParams returns the paper's experimental settings.
func DefaultParams() Params {
	return Params{Decay: 0.5, Beta: 0.5, Threshold: 0.1, BM25: ir.DefaultBM25()}
}

// Scores maps concepts to their OntoScore for one keyword.
type Scores map[ontology.ConceptID]float64

// Graph abstracts the traversal operations the strategies need, so the
// expansion can run against either the mutable map-backed
// ontology.Ontology or the frozen CSR snapshot ontology.Frozen (the
// paper's future-work "in-memory representations of the ontology
// graphs"; see BenchmarkFrozenOntology).
type Graph interface {
	Neighbors(ontology.ConceptID) []ontology.ConceptID
	Superclasses(ontology.ConceptID) []ontology.ConceptID
	Subclasses(ontology.ConceptID) []ontology.ConceptID
	NumSubclasses(ontology.ConceptID) int
	Out(ontology.ConceptID) []ontology.Edge
	In(ontology.ConceptID) []ontology.Edge
	InDegree(ontology.ConceptID, ontology.RelType) int
}

var (
	_ Graph = (*ontology.Ontology)(nil)
	_ Graph = (*ontology.Frozen)(nil)
)

// Computer evaluates OntoScores against one ontology. It precomputes
// the concept-level IR index once; keyword evaluations are independent
// and safe to run concurrently after construction.
type Computer struct {
	ont    *ontology.Ontology
	graph  Graph
	params Params
	index  *ir.Index
}

// NewComputer indexes the ontology's term texts and returns a ready
// computer traversing the ontology directly.
func NewComputer(ont *ontology.Ontology, params Params) *Computer {
	c := &Computer{ont: ont, graph: ont, params: params, index: ir.NewIndex()}
	for _, id := range ont.Concepts() {
		c.index.Add(ir.DocKey(id), tokenize(ont.TermText(id)))
	}
	return c
}

// Frozen returns a computer identical to c but traversing the frozen
// CSR snapshot of the ontology instead of the map-backed graph — same
// scores, faster expansion (no per-call adjacency allocation).
func (c *Computer) Frozen() *Computer {
	out := *c
	out.graph = ontology.Freeze(c.ont)
	return &out
}

// Ontology returns the ontology the computer evaluates against.
func (c *Computer) Ontology() *ontology.Ontology { return c.ont }

// Params returns the computation parameters.
func (c *Computer) Params() Params { return c.params }

// Seeds computes IRS_O(x, w) for every concept x containing the keyword
// (as a contiguous token phrase in one of its terms), normalized to
// (0, 1] over the containing set. These are the authority sources of
// Algorithm 1.
func (c *Computer) Seeds(keyword string) Scores {
	containing := c.ont.ConceptsContaining(keyword)
	if len(containing) == 0 {
		return nil
	}
	terms := tokenize(keyword)
	raw := make(Scores, len(containing))
	max := 0.0
	bm25 := c.index.BM25Scorer(c.params.BM25, terms)
	for _, id := range containing {
		s := bm25(ir.DocKey(id))
		raw[id] = s
		if s > max {
			max = s
		}
	}
	if max == 0 {
		// Degenerate (e.g. single-concept collection); treat containment
		// as full relevance.
		for id := range raw {
			raw[id] = 1
		}
		return raw
	}
	for id, s := range raw {
		raw[id] = s / max
	}
	return raw
}

// Compute evaluates the strategy for one keyword, returning every
// concept whose OntoScore meets the threshold. StrategyNone returns nil:
// the baseline uses no ontological association.
func (c *Computer) Compute(s Strategy, keyword string) Scores {
	switch s {
	case StrategyNone:
		return nil
	case StrategyGraph:
		return c.Graph(keyword)
	case StrategyTaxonomy:
		return c.Taxonomy(keyword)
	case StrategyRelationships:
		return c.Relationships(keyword)
	default:
		return nil
	}
}

// ComputeCtx is Compute under a context: when the context carries an
// active obs trace, the propagation is recorded as an
// "ontoscore.propagate" span with the system, strategy, keyword, and
// result size — the paper's per-stage cost attribution (Table III's
// OntoScore column) measured per query instead of per build.
func (c *Computer) ComputeCtx(ctx context.Context, s Strategy, keyword string) Scores {
	_, sp := obs.StartSpan(ctx, "ontoscore.propagate")
	sp.SetAttr("system", c.ont.SystemID)
	sp.SetAttr("strategy", s.String())
	sp.SetAttr("keyword", keyword)
	scores := c.Compute(s, keyword)
	sp.SetAttr("concepts", len(scores))
	sp.End()
	return scores
}

func tokenize(s string) []string { return xmltree.Tokenize(s) }
