package delta

import (
	"bytes"
	"testing"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// fixture is a deterministic document set rendered to bytes — the form
// documents take on the wire (/admin/ingest bodies) and on disk (the
// source directory a compaction materializes into).
type fixture struct {
	coll   *ontology.Collection
	names  []string          // stable order: Figure 1 first, then generated
	bodies map[string][]byte // serialized XML per name
}

func newFixture(t testing.TB, docs int, seed int64) *fixture {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{Seed: seed, ExtraConcepts: 80, SynonymProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{bodies: map[string][]byte{}}
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	f.names = append(f.names, fig1.Name)
	f.bodies[fig1.Name] = renderDoc(t, fig1)
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: seed, NumDocuments: docs, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.GenerateCorpus().Docs() {
		f.names = append(f.names, d.Name)
		f.bodies[d.Name] = renderDoc(t, d)
	}
	f.coll = ontology.MustCollection(ont, ontology.LOINCFragment())
	return f
}

func renderDoc(t testing.TB, doc *xmltree.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, doc.Root); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// baseCorpus parses the first n fixture documents into a corpus, the
// way a generation build reads them off the source directory.
func (f *fixture) baseCorpus(t testing.TB, n int) *xmltree.Corpus {
	t.Helper()
	corpus := xmltree.NewCorpus()
	for _, name := range f.names[:n] {
		corpus.Add(f.parse(t, name, f.bodies[name]))
	}
	return corpus
}

// parse decodes a body exactly as Segment.Apply does.
func (f *fixture) parse(t testing.TB, name string, body []byte) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseLimited(bytes.NewReader(body), xmltree.DefaultLimits())
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	doc.Name = name
	return doc
}

// testQueries covers single keywords, multi-keyword conjunctions,
// phrases, ontology-heavy terms, and a miss.
var testQueries = []string{
	"asthma",
	"asthma medications",
	`"bronchial structure" theophylline`,
	"cardiac arrest",
	"patient problems procedure",
	"zzznothing",
}
