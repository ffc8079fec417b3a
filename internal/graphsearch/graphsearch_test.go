package graphsearch

import (
	"context"
	"math"
	"testing"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

func fixture(t *testing.T, strategy ontoscore.Strategy) (*Engine, *xmltree.Corpus) {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	b := dil.NewBuilder(corpus, ont, strategy, dil.DefaultParams())
	return NewEngine(corpus, b, DefaultParams()), corpus
}

func TestReferenceEdgesExtracted(t *testing.T) {
	e, _ := fixture(t, ontoscore.StrategyNone)
	if e.NumReferenceEdges() == 0 {
		t.Fatal("figure-1 corpus has no reference edges")
	}
}

func TestGraphSearchCoversKeywords(t *testing.T) {
	e, corpus := fixture(t, ontoscore.StrategyNone)
	kws := query.ParseQuery("asthma theophylline")
	res := e.Search(kws, 5)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		if corpus.NodeAt(r.Center) == nil {
			t.Fatalf("center %v unresolvable", r.Center)
		}
		if len(r.Matches) != len(kws) {
			t.Fatalf("matches = %d", len(r.Matches))
		}
		total := 0.0
		for i, pk := range r.PerKeyword {
			if pk <= 0 {
				t.Errorf("keyword %d contribution %f", i, pk)
			}
			total += pk
			// Contribution equals NS decayed by the match distance.
			want := r.Matches[i].Score * math.Pow(0.5, float64(r.Matches[i].Distance))
			if math.Abs(pk-want) > 1e-9 {
				t.Errorf("keyword %d: contribution %f != ns*decay^d %f", i, pk, want)
			}
		}
		if math.Abs(total-r.Score) > 1e-9 {
			t.Errorf("score %f != sum %f", r.Score, total)
		}
	}
	// Ranked descending with Dewey tie-break.
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Fatal("not sorted")
		}
		if res[i-1].Score == res[i].Score && res[i-1].Center.Compare(res[i].Center) >= 0 {
			t.Fatal("tie-break unstable")
		}
	}
}

// The reference edge (asthma value -> theophylline content anchor)
// shortens the connection between "asthma" and "theophylline" relative
// to pure containment: the asthma value node and the content anchor sit
// in different sections (tree distance through the StructuredBody is
// large), but one hyperlink edge apart.
func TestReferenceEdgeShortensConnection(t *testing.T) {
	e, corpus := fixture(t, ontoscore.StrategyNone)
	kws := query.ParseQuery("asthma theophylline")
	res := e.Search(kws, 1)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	top := res[0]
	// The best center must connect the two keywords within a couple of
	// hops — impossible on the pure tree, where the LCA is the section
	// (>= 3 containment edges from the asthma value node).
	dTotal := top.Matches[0].Distance + top.Matches[1].Distance
	if dTotal > 3 {
		t.Errorf("best center needs %d hops; reference edge not exploited", dTotal)
	}

	// Compare with the tree engine: its most specific cover is higher
	// up (the section or document), hence lower-scored.
	b := dil.NewBuilder(corpus, ontology.Figure2Fragment(), ontoscore.StrategyNone, dil.DefaultParams())
	treeEngine := query.NewEngine(dil.NewIndex(), b, query.DefaultParams())
	treeResp, err := treeEngine.Query(context.Background(), query.Request{Keywords: kws, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	treeRes := treeResp.Results
	if len(treeRes) == 0 {
		t.Fatal("tree engine found nothing")
	}
	if top.Score <= treeRes[0].Score {
		t.Errorf("graph score %f not above tree score %f despite shortcut", top.Score, treeRes[0].Score)
	}
}

func TestGraphSearchOntologicalKeywords(t *testing.T) {
	// The graph engine consumes the same XOnto-DILs, so ontological
	// matches work: the intro query has results under Relationships and
	// none under the baseline.
	baseline, _ := fixture(t, ontoscore.StrategyNone)
	if res := baseline.SearchQuery(`"bronchial structure" theophylline`, 3); len(res) != 0 {
		t.Fatalf("baseline found %d results", len(res))
	}
	rel, _ := fixture(t, ontoscore.StrategyRelationships)
	if res := rel.SearchQuery(`"bronchial structure" theophylline`, 3); len(res) == 0 {
		t.Fatal("Relationships found nothing")
	}
}

func TestGraphSearchConjunctiveAndEmpty(t *testing.T) {
	e, _ := fixture(t, ontoscore.StrategyNone)
	if res := e.Search(nil, 5); res != nil {
		t.Error("empty query answered")
	}
	if res := e.SearchQuery("zzznothing theophylline", 5); len(res) != 0 {
		t.Error("unknown keyword should defeat the query")
	}
}

func TestMaxRadiusBounds(t *testing.T) {
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	b := dil.NewBuilder(corpus, ont, ontoscore.StrategyNone, dil.DefaultParams())
	tight := NewEngine(corpus, b, Params{Decay: 0.5, MaxRadius: 1, K: 10})
	wide := NewEngine(corpus, b, Params{Decay: 0.5, MaxRadius: 12, K: 10})
	kws := query.ParseQuery("asthma theophylline")
	rt := tight.Search(kws, 100)
	rw := wide.Search(kws, 100)
	if len(rt) >= len(rw) {
		t.Errorf("radius 1 found %d centers, radius 12 found %d", len(rt), len(rw))
	}
	for _, r := range rt {
		for _, m := range r.Matches {
			if m.Distance > 1 {
				t.Errorf("match at distance %d with radius 1", m.Distance)
			}
		}
	}
}
