package dil

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cda"
	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// figure1Builder wires the Figure 1 CDA document against the Figure 2
// SNOMED fragment with the relationships strategy — ontology-enriched,
// so the IR-only and full builds genuinely differ.
func figure1Builder(t *testing.T) *Builder {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	return NewBuilder(corpus, ont, ontoscore.StrategyRelationships, DefaultParams())
}

// The IR-only degraded build is byte-identical to the same builder with
// the ontology branch empty — and never includes ontology-only
// postings.
func TestBuildKeywordIRMatchesTextOnly(t *testing.T) {
	b := figure1Builder(t)
	full := b.BuildKeyword("asthma")
	ir := b.BuildKeywordIR("asthma")
	if len(ir) == 0 {
		t.Fatal("IR-only build empty for a textual keyword")
	}
	if len(ir) > len(full) {
		t.Fatalf("IR-only build (%d postings) larger than full build (%d)", len(ir), len(full))
	}
	// Every IR posting appears in the full build with at least its score
	// (equation (5) takes the max of the IR and ontology branches).
	fullAt := make(map[string]float64, len(full))
	for _, p := range full {
		fullAt[p.ID.String()] = p.Score
	}
	for _, p := range ir {
		fs, ok := fullAt[p.ID.String()]
		if !ok || fs < p.Score {
			t.Errorf("posting %s: full=%v ir=%v", p.ID, fs, p.Score)
		}
	}
}

// BuildKeywordE returns the same list as BuildKeyword when healthy and
// surfaces injected ontology faults when not.
func TestBuildKeywordE(t *testing.T) {
	defer faultinject.DisableAll()
	b := figure1Builder(t)
	want := b.BuildKeyword("asthma")
	got, err := b.BuildKeywordE("asthma")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BuildKeywordE differs from BuildKeyword")
	}
	faultinject.Enable(FPOntoResolve, faultinject.Spec{})
	if _, err := b.BuildKeywordE("asthma"); err == nil {
		t.Fatal("BuildKeywordE ignored the armed ontology failpoint")
	}
	faultinject.Disable(FPOntoResolve)
	// The non-fallible path is not failpoint-instrumented (bulk builds
	// and experiments bypass the breaker boundary).
	faultinject.Enable(FPOntoResolve, faultinject.Spec{})
	if l := b.BuildKeyword("asthma"); !reflect.DeepEqual(l, want) {
		t.Fatal("BuildKeyword changed under an armed failpoint")
	}
	faultinject.Disable(FPOntoResolve)
}

// A corpus whose documents are not in ascending ID order indexes its
// elements out of Dewey order; assemble must then fall back to sorting
// postings by identifier and produce the same lists.
func TestBuildKeywordCorpusOrderIndependent(t *testing.T) {
	ont := ontology.Figure2Fragment()
	inOrder, reversed := xmltree.NewCorpus(), xmltree.NewCorpus()
	var docs []*xmltree.Document
	for i := 0; i < 3; i++ {
		doc, err := cda.GenerateFigure1(ont)
		if err != nil {
			t.Fatal(err)
		}
		doc.Name = fmt.Sprintf("figure-1-%d", i)
		docs = append(docs, inOrder.Add(doc))
	}
	for i := len(docs) - 1; i >= 0; i-- {
		reversed.AddExisting(docs[i])
	}
	a := NewBuilder(inOrder, ont, ontoscore.StrategyRelationships, DefaultParams())
	b := NewBuilder(reversed, ont, ontoscore.StrategyRelationships, DefaultParams())
	if !a.keyOrdered || b.keyOrdered {
		t.Fatalf("keyOrdered = %v (in order), %v (reversed); want true, false", a.keyOrdered, b.keyOrdered)
	}
	for _, kw := range []string{"asthma", "theophylline", "bronchial structure", "medications"} {
		got, want := b.BuildKeyword(kw), a.BuildKeyword(kw)
		if len(want) == 0 || !listsEqual(got, want) {
			t.Errorf("%q: reversed corpus list differs (%d vs %d postings)", kw, len(got), len(want))
		}
	}
}
