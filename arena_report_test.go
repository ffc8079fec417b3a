package xontorank

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/arena"
	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// arenaBenchSystem builds one system (Relationships strategy) over a
// generated corpus of `docs` documents.
func arenaBenchSystem(tb testing.TB, docs int) *core.System {
	tb.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 42, ExtraConcepts: 300})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 42, NumDocuments: docs, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		tb.Fatal(err)
	}
	corpus := xmltree.NewCorpus()
	for _, d := range g.GenerateCorpus().Docs() {
		corpus.Add(&xmltree.Document{Root: d.Root, Name: d.Name})
	}
	cfg := core.DefaultConfig()
	cfg.Strategy = ontoscore.StrategyRelationships
	return core.NewMulti(corpus, ontology.MustCollection(ont, ontology.LOINCFragment()), cfg)
}

var arenaBenchQueries = []string{
	"asthma",
	"asthma medications",
	"patient problems procedure",
}

// TestWriteArenaBenchReport regenerates BENCH_ARENA.json, the recorded
// evidence for the memory-mapped arena acceptance criteria: cold start
// >= 10x faster than decode-to-heap on the largest corpus, and query
// latency over the mapping within 10% of heap serving. Gated so normal
// test runs stay fast:
//
//	BENCH_ARENA=1 go test -run TestWriteArenaBenchReport .
//
// or `make bench-arena-report`.
func TestWriteArenaBenchReport(t *testing.T) {
	if os.Getenv("BENCH_ARENA") == "" {
		t.Skip("set BENCH_ARENA=1 to regenerate BENCH_ARENA.json")
	}

	type row struct {
		Docs       int     `json:"docs"`
		Keywords   int     `json:"keywords"`
		IndexBytes int     `json:"index_bytes"`
		NsHeapLoad int64   `json:"cold_start_ns_decode_to_heap"`
		NsMmapOpen int64   `json:"cold_start_ns_mmap"`
		Speedup    float64 `json:"cold_start_speedup"`
		NsQryHeap  int64   `json:"query_ns_heap"`
		NsQryMmap  int64   `json:"query_ns_mmap"`
		QryRatio   float64 `json:"query_ratio_mmap_vs_heap"`
	}
	report := struct {
		Description string `json:"description"`
		CPU         string `json:"cpu"`
		GoVersion   string `json:"go_version"`
		Rows        []row  `json:"cold_start_and_query"`
	}{
		Description: "single-file index arena: cold start by mmap (superblock+TOC " +
			"parse only, postings stay on disk) vs decoding the stored index to " +
			"heap, and steady-state query latency over each; regenerate with " +
			"`make bench-arena-report`",
		CPU:       runtime.GOARCH,
		GoVersion: runtime.Version(),
	}

	sizes := []int{30, 100, 300}
	for i, docs := range sizes {
		docs := docs
		largest := i == len(sizes)-1
		dir := t.TempDir()

		// Persist the built index once; both cold starts read this file.
		sys := arenaBenchSystem(t, docs)
		if _, err := sys.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		path := arena.FileFor(dir, "Relationships")
		fp := core.CorpusFingerprint(sys.Corpus())
		if err := sys.WriteArena(path, 1, fp); err != nil {
			t.Fatal(err)
		}

		r := row{Docs: docs}

		// Cold start, decode-to-heap: every XCL1 segment of the same
		// arena is decoded into a heap index before the first query can
		// run.
		r.NsHeapLoad = testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				a, err := arena.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				ix := dil.NewIndex()
				for _, kw := range a.Keywords() {
					ix.Set(kw, a.Compact(kw).List())
				}
				if err := a.Err(); err != nil {
					b.Fatal(err)
				}
				a.Close()
			}
		}).NsPerOp()

		// Cold start, mmap: map the file and validate the superblock and
		// offset table; postings pages fault in on demand.
		r.NsMmapOpen = testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				a, err := arena.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				a.Close()
			}
		}).NsPerOp()
		r.Speedup = round2(float64(r.NsHeapLoad) / float64(r.NsMmapOpen))

		// Steady-state query latency over each representation: the heap
		// system serves the same index from memory.
		heapSys := arenaBenchSystem(t, docs)
		if _, err := heapSys.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		a, err := arena.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r.Keywords = a.Len()
		r.IndexBytes = a.MappedBytes()
		mmapSys := arenaBenchSystem(t, docs)
		if _, err := mmapSys.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		if err := mmapSys.ArenaCompatible(a, fp); err != nil {
			t.Fatal(err)
		}
		mmapSys.UseArena(a)

		qbench := func(s *core.System) int64 {
			ctx := context.Background()
			return testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					q := arenaBenchQueries[n%len(arenaBenchQueries)]
					if _, err := s.Query(ctx, core.SearchRequest{Query: q, K: 10}); err != nil {
						b.Fatal(err)
					}
				}
			}).NsPerOp()
		}
		r.NsQryHeap = qbench(heapSys)
		r.NsQryMmap = qbench(mmapSys)
		r.QryRatio = round2(float64(r.NsQryMmap) / float64(r.NsQryHeap))
		a.Close()
		report.Rows = append(report.Rows, r)

		if largest && r.Speedup < 10 {
			t.Errorf("docs=%d: mmap cold start %.2fx faster than decode-to-heap, want >= 10x", docs, r.Speedup)
		}
		if largest && r.QryRatio > 1.10 {
			t.Errorf("docs=%d: mmap query latency %.2fx of heap, want within 10%%", docs, r.QryRatio)
		}
		t.Logf("docs=%d: cold start %.2fx (%.1fus mmap vs %.1fus heap), query ratio %.2f",
			docs, r.Speedup, float64(r.NsMmapOpen)/1e3, float64(r.NsHeapLoad)/1e3, r.QryRatio)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ARENA.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_ARENA.json (%d rows)", len(report.Rows))
}
