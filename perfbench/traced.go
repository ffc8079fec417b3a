package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/xmltree"
)

// The traced run rebuilds the server in this process with the
// constructors xontoserve uses (ingest.Run → server.NewServing →
// per-strategy index build and arena write → EnableArena, and
// EnableDelta for live ingest) and times each call from here. It then
// runs four phases over the same request stream as the end-to-end run:
//
//  1. HTTP: the same closed loop (and writer) against the in-process
//     server on a loopback listener, for warm-up plus the window. Its
//     figures are reported as traced.* next to the per-layer ones; the
//     difference to the end-to-end run is the cost of tracing and of
//     serving in process. Serving, keyword-cache and delta counters
//     are read as deltas over this phase.
//  2. serving: 10% of the window, one caller, each request through
//     Server.Serving().Search.
//  3. core: 10% of the window, one caller, each request through
//     Server.System(strategy).Query under a tracer this benchmark owns;
//     the program's own spans (query.resolve_keywords, query.dil_merge)
//     split the query phase.
//  4. dil/ontoscore: 5% of the window, distinct keywords of the
//     stream, each through Builder.BuildKeywordCtx (spans
//     dil.text_scores, ontoscore.propagate) and Computer.Compute.
//
// Phases 2 and 3 keep the writer's cadence on the ingest workload, so
// the overlay stays dirty and the keyword caches keep being purged.
// Afterwards, layers the workload leaves idle are measured on its
// corpus: the index and arena build without arenas, and afterIngests
// writer operations with live ingest switched on for read-only
// workloads.

// layerMetrics collects per-layer values with their units.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

func (m layerMetrics) secs(name string, d time.Duration) { m.set(name, "s", d.Seconds()) }

func runTraced(w workload, seed int64, window time.Duration, dir string) (*outcome, error) {
	fx, err := newFixture(w, seed, defaultSpec, dir)
	if err != nil {
		return nil, err
	}
	data := filepath.Join(dir, "serve")
	if err := copyTree(fx.data.dir, data); err != nil {
		return nil, err
	}
	m := layerMetrics{}
	report := map[string]any{"corpus_docs": fx.base.Len(), "clients": clients}
	quiet := func(string, ...any) {}
	ctx := context.Background()

	// Set-up, layer by layer.
	setupStart := time.Now()
	icfg := ingest.Config{
		SourceDir: filepath.Join(data, "docs"), Limits: xmltree.DefaultLimits(), ValidateCDA: true, Logf: quiet,
	}
	t0 := time.Now()
	ing, err := ingest.Run(ctx, icfg)
	if err != nil {
		return nil, err
	}
	m.secs("ingest.run_s", time.Since(t0))
	coll, err := loadCollection(data)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	srv := server.NewServing(ing.Corpus, coll, core.DefaultConfig(), serving.DefaultConfig())
	m.secs("server.new_s", time.Since(t0))
	srv.SetLogf(quiet)
	if w.arena {
		if err := buildArenas(srv, filepath.Join(data, "arena"), true, m); err != nil {
			return nil, err
		}
	}
	enableDelta := func() error {
		return srv.EnableDelta(server.DeltaConfig{WALPath: filepath.Join(data, "delta.wal"), Ingest: icfg})
	}
	if w.live {
		if err := enableDelta(); err != nil {
			return nil, err
		}
	}
	defer srv.CloseDelta()
	m.secs("traced.setup_s", time.Since(setupStart))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()

	// Phase 1: HTTP.
	t := &tally{}
	prewarm(base, fx.stream, t)
	var wr *writer
	if w.live {
		wr = newWriter(base, fx.data.heldOut, fx.firstDeltaID())
		wr.fill(t)
	}
	svc0, kw0, ver0 := srv.Serving().Metrics(), keywordCache(srv), deltaVersion(srv)
	res := drive(base, fx.stream, 0, window, wr, t)
	if len(res.searches) == 0 {
		return nil, errors.New("no search completed inside the window")
	}
	svc1, kw1, ver1 := srv.Serving().Metrics(), keywordCache(srv), deltaVersion(srv)
	httpPhase(res, m)
	m.set("serving.result_cache_hit_ratio", "ratio", ratio(svc1.Requests.CacheHits-svc0.Requests.CacheHits, svc1.Requests.Requests-svc0.Requests.Requests))
	m.set("serving.executions", "count", float64(svc1.Requests.Executions-svc0.Requests.Executions))
	m.set("serving.coalesced", "count", float64(svc1.Requests.Coalesced-svc0.Requests.Coalesced))
	m.set("serving.shed", "count", float64(svc1.Requests.Shed-svc0.Requests.Shed))
	m.set("query.keyword_cache_hit_ratio", "ratio", ratio(kw1.Hits-kw0.Hits, kw1.Hits-kw0.Hits+kw1.Misses-kw0.Misses))
	m.set("delta.keyword_cache_purges", "count", float64(ver1-ver0))
	m.set("delta.docs", "count", 0)
	m.set("delta.wal_pending", "count", 0)
	if w.live {
		setIngest(wr, m, report)
		m.set("delta.docs", "count", float64(srv.Delta().Docs()))
		pending, err := walPending(base)
		if err != nil {
			return nil, err
		}
		m.set("delta.wal_pending", "count", float64(pending))
	}
	report["search_samples"] = len(res.searches)

	// Output check of phase 1, as in the end-to-end run.
	checks, err := fx.checkSystems(wr)
	if err != nil {
		return nil, err
	}
	if w.live {
		res.kept = reissue(base, res.kept, t)
	}
	checkPages(base, res.kept, t)
	checkInProcess(checks, res.kept, t)

	// Phases 2–4: direct calls, one caller.
	next := res.next
	var step func()
	if w.live {
		step = func() { wr.step(false, t) }
	}
	next = servingPhase(srv, fx.stream, next, window/10, step, t, m)
	next = corePhase(srv, fx.stream, next, window/10, step, t, m)
	keywordPhase(srv, fx.stream, next, window/20, t, m, report)

	// Layers this workload's server leaves idle are measured on its
	// corpus once the phases are over: the index and arena build (not
	// attached), and a fixed series of writer operations with live
	// ingest switched on.
	if !w.arena {
		if err := buildArenas(srv, filepath.Join(data, "arena"), false, m); err != nil {
			return nil, err
		}
	}
	if !w.live {
		if err := enableDelta(); err != nil {
			return nil, err
		}
		wr = newWriter(base, fx.data.heldOut, fx.firstDeltaID())
		for i := 0; i < afterIngests; i++ {
			wr.step(true, t)
		}
		setIngest(wr, m, report)
	}
	return &outcome{metrics: map[string]metric(m), report: report, tally: t}, nil
}

// setIngest reports the writer's acked operation latencies.
func setIngest(wr *writer, m layerMetrics, report map[string]any) {
	ir := ingestReport(wr.putLat, wr.delLat)
	m.set("delta.ingest_p50_ms", "ms", ir["ingest_p50_ms"].(float64))
	m.set("delta.ingest_p90_ms", "ms", ir["ingest_p90_ms"].(float64))
	report["ingest_samples"] = ir["ingest_samples"]
	report["ingest_p90_percentile"] = ir["ingest_p90_percentile"]
}

// buildArenas runs what xontoserve -mmap-index does on a fresh data
// directory — per strategy a full index build (dil.BuildStats) and an
// atomic arena write — and, with attach, EnableArena maps the files.
func buildArenas(srv *server.Server, dir string, attach bool, m layerMetrics) error {
	var fullText, onto, dilT, write time.Duration
	var postings, bytes int64
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, st := range ontoscore.Strategies() {
		sys := srv.System(st)
		stats, err := sys.BuildIndex()
		if err != nil {
			return fmt.Errorf("building %s index: %w", st, err)
		}
		fullText += stats.FullTextTime
		onto += stats.OntoScoreTime
		dilT += stats.DILTime
		postings += int64(stats.TotalPostings)
		bytes += int64(stats.TotalBytes)
		t0 := time.Now()
		if err := sys.WriteArena(arena.FileFor(dir, st.String()), srv.GenerationNum(), core.CorpusFingerprint(sys.Corpus())); err != nil {
			return err
		}
		write += time.Since(t0)
	}
	if attach {
		if err := srv.EnableArena(server.ArenaConfig{Dir: dir, Rebuild: true}); err != nil {
			return err
		}
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.secs("dil.build_fulltext_s", fullText)
	m.secs("dil.build_ontoscore_s", onto)
	m.secs("dil.build_dil_s", dilT)
	m.set("dil.postings", "count", float64(postings))
	m.set("dil.bytes", "bytes", float64(bytes))
	m.secs("arena.write_s", write)
	m.set("arena.bytes", "bytes", float64(size))
	return nil
}

// afterIngests is how many writer operations the traced run times on a
// read-only workload once its phases are over.
const afterIngests = 40

// httpPhase reports the closed-loop phase: client-observed latency and
// throughput (traced.*), the handler's own time from each answer's
// timing block, and the rest of the client time as HTTP overhead
// (transport, JSON encoding and decoding).
func httpPhase(res *driveResult, m layerMetrics) {
	lat := make([]float64, len(res.searches))
	handler := make([]float64, len(res.searches))
	overhead := make([]float64, len(res.searches))
	for i, s := range res.searches {
		us := float64(s.lat) / float64(time.Microsecond)
		lat[i], handler[i], overhead[i] = us/1000, float64(s.handlerUS), us-float64(s.handlerUS)
	}
	l, h := newDist(lat), newDist(handler)
	_, p95 := l.tail(95)
	m.set("traced.search_p50_ms", "ms", l.p(50))
	m.set("traced.search_p95_ms", "ms", p95)
	m.set("traced.search_qps", "1/s", float64(len(lat))/res.elapsed.Seconds())
	_, h99 := h.tail(99)
	m.set("server.handler_us_p50", "us", h.p(50))
	m.set("server.handler_us_p99", "us", h99)
	m.set("server.http_overhead_us_p50", "us", newDist(overhead).p(50))
}

// servingPhase calls the serving layer directly, with the cache epoch
// the HTTP handler would use.
func servingPhase(srv *server.Server, s *stream, next uint64, d time.Duration, step func(), t *tally, m layerMetrics) uint64 {
	var us []float64
	for end := time.Now().Add(d); time.Now().Before(end); next++ {
		if step != nil && next%writeEvery == 0 {
			step()
		}
		req := s.at(next)
		epoch := srv.GenerationNum()
		if seg := srv.Delta(); seg != nil {
			epoch = epoch<<32 | seg.Version()&0xffffffff
		}
		t0 := time.Now()
		_, err := srv.Serving().Search(context.Background(), serving.Request{
			Strategy: req.Strategy, Query: query.Normalize(req.Query), K: req.K, Offset: req.Offset, Epoch: epoch,
		})
		el := time.Since(t0)
		if err != nil {
			t.fail("serving %s: %v", req.path(), err)
			continue
		}
		t.ok()
		us = append(us, float64(el)/float64(time.Microsecond))
	}
	dd := newDist(us)
	_, p99 := dd.tail(99)
	m.set("serving.search_us_p50", "us", dd.p(50))
	m.set("serving.search_us_p99", "us", p99)
	return next
}

// corePhase calls System.Query directly under the benchmark's own
// tracer and reads the query-phase spans and the pruning block.
func corePhase(srv *server.Server, s *stream, next uint64, d time.Duration, step func(), t *tally, m layerMetrics) uint64 {
	tracer := obs.NewTracer(1)
	var total, search, hydrate, resolve, merge []float64
	var scored, docsSkipped, blocksSkipped, early int64
	for end := time.Now().Add(d); time.Now().Before(end); next++ {
		if step != nil && next%writeEvery == 0 {
			step()
		}
		req := s.at(next)
		ctx, root := tracer.StartRoot(context.Background(), "perfbench.core")
		t0 := time.Now()
		resp, err := srv.System(mustStrategy(req.Strategy)).Query(ctx, core.SearchRequest{Query: req.Query, K: req.K, Offset: req.Offset})
		el := time.Since(t0)
		root.End()
		if err != nil {
			t.fail("core %s: %v", req.path(), err)
			continue
		}
		t.ok()
		tree := root.Tree()
		total = append(total, float64(el)/float64(time.Microsecond))
		search = append(search, float64(resp.Timing.SearchUS))
		hydrate = append(hydrate, float64(resp.Timing.HydrateUS))
		resolve = append(resolve, spanUS(&tree, "query.resolve_keywords"))
		merge = append(merge, spanUS(&tree, "query.dil_merge"))
		scored += resp.Pruning.PostingsScored
		docsSkipped += resp.Pruning.DocsSkipped
		blocksSkipped += resp.Pruning.BlocksSkipped
		if resp.Pruning.EarlyTerminated {
			early++
		}
	}
	n := int64(len(total))
	tq, hy := newDist(total), newDist(hydrate)
	_, q99 := tq.tail(99)
	_, h99 := hy.tail(99)
	m.set("core.query_us_p50", "us", tq.p(50))
	m.set("core.query_us_p99", "us", q99)
	m.set("core.search_us_p50", "us", newDist(search).p(50))
	m.set("core.hydrate_us_p50", "us", hy.p(50))
	m.set("core.hydrate_us_p99", "us", h99)
	m.set("query.resolve_us_p50", "us", newDist(resolve).p(50))
	m.set("query.merge_us_p50", "us", newDist(merge).p(50))
	m.set("query.postings_scored_per_search", "count", ratio(scored, n))
	m.set("query.docs_skipped_per_search", "count", ratio(docsSkipped, n))
	m.set("query.blocks_skipped_per_search", "count", ratio(blocksSkipped, n))
	m.set("query.early_term_ratio", "ratio", ratio(early, n))
	return next
}

// keywordPhase replays distinct keywords of the stream through the
// on-demand builder and the OntoScore computers. Builder calls bypass
// every cache, so each is a full build.
func keywordPhase(srv *server.Server, s *stream, next uint64, d time.Duration, t *tally, m layerMetrics, report map[string]any) {
	tracer := obs.NewTracer(1)
	seen := map[string]bool{}
	var build, text, prop, compute []float64
	for end := time.Now().Add(d); time.Now().Before(end); next++ {
		req := s.at(next)
		st := mustStrategy(req.Strategy)
		b := srv.System(st).Builder()
		for _, kw := range query.ParseQuery(req.Query) {
			key := req.Strategy + "\x1f" + string(kw)
			if seen[key] || !time.Now().Before(end) {
				continue
			}
			seen[key] = true
			ctx, root := tracer.StartRoot(context.Background(), "perfbench.build")
			t0 := time.Now()
			b.BuildKeywordCtx(ctx, string(kw))
			el := time.Since(t0)
			root.End()
			tree := root.Tree()
			build = append(build, float64(el)/float64(time.Microsecond))
			text = append(text, spanUS(&tree, "dil.text_scores"))
			t.ok()
			if st == ontoscore.StrategyNone {
				continue // XRANK has no ontology branch
			}
			prop = append(prop, spanUS(&tree, "ontoscore.propagate"))
			t0 = time.Now()
			for _, ont := range b.Collection().Ontologies() {
				b.Computer(ont.SystemID).Compute(st, string(kw))
			}
			compute = append(compute, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	bd := newDist(build)
	_, b99 := bd.tail(99)
	m.set("dil.build_keyword_us_p50", "us", bd.p(50))
	m.set("dil.build_keyword_us_p99", "us", b99)
	m.set("dil.text_scores_us_p50", "us", newDist(text).p(50))
	m.set("ontoscore.compute_us_p50", "us", newDist(compute).p(50))
	m.set("ontoscore.propagate_us_p50", "us", newDist(prop).p(50))
	report["keyword_builds"] = len(build)
}

// spanUS sums the durations of every span with the given name.
func spanUS(tree *obs.SpanTree, name string) float64 {
	if tree == nil {
		return 0
	}
	total := 0.0
	if tree.Name == name {
		total += float64(tree.DurationUS)
	}
	for i := range tree.Children {
		total += spanUS(&tree.Children[i], name)
	}
	return total
}

func mustStrategy(name string) ontoscore.Strategy {
	st, err := ontoscore.ParseStrategy(name)
	if err != nil {
		panic(err) // the stream only draws from strategyNames
	}
	return st
}

// keywordCache sums the keyword-cache counters of the active systems.
func keywordCache(srv *server.Server) serving.CacheMetrics {
	var sum serving.CacheMetrics
	for _, st := range ontoscore.Strategies() {
		c := srv.System(st).KeywordCacheMetrics()
		sum.Hits += c.Hits
		sum.Misses += c.Misses
	}
	return sum
}

// deltaVersion is the live segment's state version; every applied
// ingest bumps it once and purges the keyword caches once.
func deltaVersion(srv *server.Server) uint64 {
	if seg := srv.Delta(); seg != nil {
		return seg.Version()
	}
	return 0
}

// walPending reads the acknowledged operations not yet compacted from
// the /readyz delta block.
func walPending(base string) (int, error) {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ready struct {
		Delta *struct {
			WALPending int `json:"walPending"`
		} `json:"delta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return 0, err
	}
	if ready.Delta == nil {
		return 0, errors.New("/readyz has no delta block")
	}
	return ready.Delta.WALPending, nil
}
