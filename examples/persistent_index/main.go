// Persistent index: the full Figure-8 pipeline with durable storage.
// The corpus is persisted into the embedded key-value store (the
// Database Access Module, docstore) and the XOnto-DILs into one
// memory-mapped XARN1 arena file; a second, fresh process-like phase
// reopens the store, maps the arena (its fingerprints must match the
// reloaded corpus), answers a query, and resolves the result fragments
// through the docstore — nothing is recomputed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	xontorank "repro"
	"repro/internal/arena"
	"repro/internal/cda"
	"repro/internal/docstore"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "xontorank-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Phase 1: generate, index, persist. ----
	ontCfg := xontorank.DefaultOntologyConfig()
	ontCfg.ExtraConcepts = 300
	ont, err := xontorank.GenerateOntology(ontCfg)
	if err != nil {
		log.Fatal(err)
	}
	corpCfg := xontorank.DefaultCorpusConfig()
	corpCfg.NumDocuments = 30
	corpus, err := xontorank.GenerateCorpus(corpCfg, ont)
	if err != nil {
		log.Fatal(err)
	}
	fig1, err := xontorank.GenerateFigureOne(ont)
	if err != nil {
		log.Fatal(err)
	}
	corpus.Add(fig1)

	kv, err := store.Open(filepath.Join(dir, "db"), store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := docstore.Save(kv, corpus); err != nil {
		log.Fatal(err)
	}

	sys := xontorank.New(corpus, ont, xontorank.DefaultConfig())
	stats, err := sys.BuildIndex()
	if err != nil {
		log.Fatal(err)
	}
	arenaPath := arena.FileFor(dir, sys.Config().Strategy.String())
	if err := sys.WriteArena(arenaPath, 1, corpus.Fingerprint()); err != nil {
		log.Fatal(err)
	}
	size, _ := kv.DiskSize()
	arenaInfo, err := os.Stat(arenaPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: indexed %d keywords / %d postings into %s (%.1f KB); store holds %d keys, %.1f KB on disk\n",
		stats.Keywords, stats.TotalPostings, filepath.Base(arenaPath), float64(arenaInfo.Size())/1024,
		kv.Len(), float64(size)/1024)
	if err := kv.Close(); err != nil {
		log.Fatal(err)
	}

	// Persist the ontology alongside (a real deployment would, too).
	ontFile, err := os.Create(filepath.Join(dir, "ontology.json"))
	if err != nil {
		log.Fatal(err)
	}
	if err := ont.Save(ontFile); err != nil {
		log.Fatal(err)
	}
	ontFile.Close()

	// ---- Phase 2: reopen everything cold and serve a query. ----
	kv2, err := store.Open(filepath.Join(dir, "db"), store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer kv2.Close()

	ontFile2, err := os.Open(filepath.Join(dir, "ontology.json"))
	if err != nil {
		log.Fatal(err)
	}
	ont2, err := xontorank.LoadOntology(ontFile2)
	ontFile2.Close()
	if err != nil {
		log.Fatal(err)
	}

	docs, err := docstore.Open(kv2, 16)
	if err != nil {
		log.Fatal(err)
	}
	corpus2, err := docs.LoadCorpus()
	if err != nil {
		log.Fatal(err)
	}
	sys2 := xontorank.New(corpus2, ont2, xontorank.DefaultConfig())
	idx, err := sys2.OpenCompatibleArena(arenaPath, corpus2.Fingerprint())
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	sys2.UseArena(idx)

	const q = `"bronchial structure" theophylline`
	results := search(sys2, q, 3)
	fmt.Printf("phase 2: %d documents reloaded, query %s -> %d results\n",
		docs.NumDocuments(), q, len(results))
	for i, r := range results {
		// Resolve the fragment through the Database Access Module.
		frag, err := docs.Fragment(r.Root)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := docs.Document(r.Root.DocID())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d. score=%.4f doc=%s — %s\n", i+1, r.Score, r.Document, cda.Summary(doc))
		if i == 0 {
			fmt.Println("   fragment:")
			fmt.Println("   " + frag)
		}
	}
}

// search runs one query through the system's sole search entry point.
func search(sys *xontorank.System, q string, k int) []xontorank.Result {
	resp, err := sys.Query(context.Background(), xontorank.SearchRequest{Query: q, K: k})
	if err != nil {
		log.Fatal(err)
	}
	return resp.Results
}
