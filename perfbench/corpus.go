package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// corpusSpec sizes the generated data set. The generator and its
// settings are the ones `xontorank gen` uses.
type corpusSpec struct {
	Docs     int // patient records served from the data directory
	Concepts int // synthetic ontology concepts beyond the curated cores
	HeldOut  int // further records kept back for live ingest
}

// defaultSpec is the corpus every workload runs on. 3,000 documents
// would take ~90 s per server start with -mmap-index on two cores,
// which the run budget cannot hold three times per run; 300 documents
// start in ~6 s.
var defaultSpec = corpusSpec{Docs: 300, Concepts: 3000, HeldOut: 64}

// heldDoc is one record the ingest writer posts during a run.
type heldDoc struct {
	name string
	body []byte
}

// dataSet is a generated data directory plus what the benchmark keeps
// in memory about it.
type dataSet struct {
	dir     string // holds ontology.json and docs/
	heldOut []heldDoc
	phrases []string // multi-token phrases of the ontology's concept terms
}

// generateData writes a seeded ontology and CDA corpus into dir in the
// layout `xontorank gen` produces (Figure 1's record included) and
// returns the held-out records, which never touch the disk.
func generateData(dir string, seed int64, spec corpusSpec) (*dataSet, error) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: seed, ExtraConcepts: spec.Concepts, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		return nil, err
	}
	gen, err := cda.NewGenerator(cda.GenConfig{
		Seed: seed, NumDocuments: spec.Docs + spec.HeldOut, ProblemsPerPatient: 4,
		MedicationsPerPatient: 4, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		return nil, err
	}
	docsDir := filepath.Join(dir, "docs")
	if err := os.MkdirAll(docsDir, 0o755); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ont.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "ontology.json"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		return nil, err
	}
	ds := &dataSet{dir: dir, phrases: conceptPhrases(ont)}
	write := func(doc *xmltree.Document) error {
		buf.Reset()
		if err := xmltree.WriteXML(&buf, doc.Root); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(docsDir, doc.Name+".xml"), buf.Bytes(), 0o644)
	}
	for i := 0; i < spec.Docs; i++ {
		if err := write(gen.GenerateDocument(i)); err != nil {
			return nil, err
		}
	}
	if err := write(fig1); err != nil {
		return nil, err
	}
	for i := spec.Docs; i < spec.Docs+spec.HeldOut; i++ {
		doc := gen.GenerateDocument(i)
		buf.Reset()
		if err := xmltree.WriteXML(&buf, doc.Root); err != nil {
			return nil, err
		}
		ds.heldOut = append(ds.heldOut, heldDoc{name: doc.Name, body: bytes.Clone(buf.Bytes())})
	}
	return ds, nil
}

// conceptPhrases lists every contiguous run of two or more tokens of
// every concept term (preferred or synonym), sorted and without
// duplicates. Each is a valid phrase keyword: OntoScore seeds it at
// every concept whose term contains it.
func conceptPhrases(ont *ontology.Ontology) []string {
	seen := map[string]bool{}
	for _, id := range ont.Concepts() {
		for _, t := range ont.Concept(id).Terms() {
			tokens := xmltree.Tokenize(t)
			for i := range tokens {
				for j := i + 2; j <= len(tokens); j++ {
					seen[strings.Join(tokens[i:j], " ")] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// loadCollection reads <dir>/ontology.json with the built-in LOINC
// fragment, as xontoserve does.
func loadCollection(dir string) (*ontology.Collection, error) {
	f, err := os.Open(filepath.Join(dir, "ontology.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ont, err := ontology.Load(f)
	if err != nil {
		return nil, err
	}
	return ontology.NewCollection(ont, ontology.LOINCFragment())
}

// loadCorpus parses <dir>/docs the way the server's ingest does:
// sorted file names, IDs in that order.
func loadCorpus(dir string) (*xmltree.Corpus, error) {
	corpus, report, err := xmltree.LoadDir(filepath.Join(dir, "docs"))
	if err != nil {
		return nil, err
	}
	if len(report.Skipped) > 0 {
		return nil, fmt.Errorf("generated corpus has unparsable documents: %v", report.Skipped[0])
	}
	return corpus, nil
}

// newSystems builds one in-process system per strategy over corpus,
// configured as xontoserve configures its own.
func newSystems(corpus *xmltree.Corpus, coll *ontology.Collection) map[string]*core.System {
	out := make(map[string]*core.System, 4)
	for _, st := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		out[st.String()] = core.NewMulti(corpus, coll, cfg)
	}
	return out
}

// copyTree copies a data directory (regular files only) so each server
// start gets a fresh one.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
