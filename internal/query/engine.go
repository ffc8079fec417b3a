package query

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/dil"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/xmltree"
)

// ListSource supplies the XOnto-DIL of a keyword. *dil.Index satisfies
// the read path; Engine optionally falls back to a builder for keywords
// (typically phrases) not in the prebuilt index.
type ListSource interface {
	List(keyword string) dil.List
}

// CompactSource is the optional fast-merge face of a ListSource: a
// source that can also hand out the block-structured form of a
// keyword's list, letting the DIL merge skip whole blocks without
// decoding (merge.go). *dil.Index satisfies it.
type CompactSource interface {
	Compact(keyword string) *dil.CompactList
}

// KeywordBuilder builds a DIL on demand; *dil.Builder satisfies it.
type KeywordBuilder interface {
	BuildKeyword(keyword string) dil.List
}

// FallibleKeywordBuilder is a KeywordBuilder whose ontology path can
// fail. When the engine's builder implements it, on-demand builds run
// under the retry policy and circuit breaker, and failures degrade the
// keyword to IR-only scoring instead of surfacing an error.
// *dil.Builder satisfies it.
type FallibleKeywordBuilder interface {
	BuildKeywordE(keyword string) (dil.List, error)
}

// IRKeywordBuilder builds a DIL without consulting the ontology —
// NS(v,w) = IRS(v,w), the XRANK baseline — used as the degraded
// fallback when the ontology path is unavailable. *dil.Builder
// satisfies it.
type IRKeywordBuilder interface {
	BuildKeywordIR(keyword string) dil.List
}

// Context-aware variants of the builder interfaces: when the engine's
// builder implements them, on-demand builds receive the request
// context, so build-stage spans (dil.build_keyword, dil.text_scores,
// ontoscore.propagate) attach to the request's trace. *dil.Builder
// satisfies all three.
type (
	// CtxKeywordBuilder is KeywordBuilder with context propagation.
	CtxKeywordBuilder interface {
		BuildKeywordCtx(ctx context.Context, keyword string) dil.List
	}
	// CtxFallibleKeywordBuilder is FallibleKeywordBuilder with context
	// propagation.
	CtxFallibleKeywordBuilder interface {
		BuildKeywordECtx(ctx context.Context, keyword string) (dil.List, error)
	}
	// CtxIRKeywordBuilder is IRKeywordBuilder with context propagation.
	CtxIRKeywordBuilder interface {
		BuildKeywordIRCtx(ctx context.Context, keyword string) dil.List
	}
)

// buildPlain invokes the builder's context-aware build when available.
func (e *Engine) buildPlain(ctx context.Context, kw string) dil.List {
	if cb, ok := e.builder.(CtxKeywordBuilder); ok {
		return cb.BuildKeywordCtx(ctx, kw)
	}
	return e.builder.BuildKeyword(kw)
}

// buildE invokes the fallible ontology-path build, context-aware when
// available.
func (e *Engine) buildE(ctx context.Context, fb FallibleKeywordBuilder, kw string) (dil.List, error) {
	if cb, ok := e.builder.(CtxFallibleKeywordBuilder); ok {
		return cb.BuildKeywordECtx(ctx, kw)
	}
	return fb.BuildKeywordE(kw)
}

// buildIR invokes the degraded IR-only build, context-aware when
// available.
func (e *Engine) buildIR(ctx context.Context, irb IRKeywordBuilder, kw string) dil.List {
	if cb, ok := e.builder.(CtxIRKeywordBuilder); ok {
		return cb.BuildKeywordIRCtx(ctx, kw)
	}
	return irb.BuildKeywordIR(kw)
}

// Params configure the query phase.
type Params struct {
	// Decay is the per-containment-edge attenuation of equation (2);
	// the paper uses 0.5.
	Decay float64
	// K is the default result-list length.
	K int
	// CacheSize bounds the on-demand keyword cache (entries); <= 0
	// uses DefaultKeywordCacheSize. The cache is a sharded LRU, so a
	// long-running server cannot grow without limit however many
	// distinct phrases it is asked for.
	CacheSize int
	// Retry bounds the ontology-path build attempts before a keyword
	// degrades to IR-only scoring (zero value: resilience defaults).
	Retry resilience.RetryPolicy
	// Breaker tunes the circuit breaker guarding the ontology path
	// (zero value: resilience defaults).
	Breaker resilience.BreakerConfig
}

// DefaultKeywordCacheSize is the on-demand keyword cache bound used
// when Params.CacheSize is unset.
const DefaultKeywordCacheSize = 4096

// DefaultParams returns decay 0.5, top-10, and the default keyword
// cache bound.
func DefaultParams() Params {
	return Params{Decay: 0.5, K: 10, CacheSize: DefaultKeywordCacheSize}
}

// Engine answers keyword queries against an XOnto-DIL index. It is
// safe for concurrent use: posting lists are resolved in parallel (one
// goroutine per keyword), on-demand builds are deduplicated across
// concurrent queries, and built lists land in a bounded LRU.
type Engine struct {
	params  Params
	source  ListSource
	builder KeywordBuilder

	cache   *serving.Cache[dil.List] // on-demand keywords, bounded LRU
	flights serving.Group[dil.List]  // dedup of concurrent builds

	breaker *resilience.Breaker // guards the ontology build path
	retry   resilience.RetryPolicy

	overlay Overlay // live delta overlay (nil when not serving deltas)
}

// NewEngine returns an engine reading lists from source, consulting
// builder (may be nil) for keywords the source lacks.
func NewEngine(source ListSource, builder KeywordBuilder, params Params) *Engine {
	size := params.CacheSize
	if size <= 0 {
		size = DefaultKeywordCacheSize
	}
	return &Engine{
		params:  params,
		source:  source,
		builder: builder,
		cache:   serving.NewCache[dil.List](size, 0),
		breaker: resilience.NewBreaker(params.Breaker),
		retry:   params.Retry,
	}
}

// CacheMetrics reports the on-demand keyword cache counters.
func (e *Engine) CacheMetrics() serving.CacheMetrics { return e.cache.Metrics() }

// SetSource replaces the engine's list source. The server uses it to
// repoint a system at a memory-mapped arena after construction; it
// must not be called while queries are in flight (generations install
// arenas before a generation starts serving).
func (e *Engine) SetSource(source ListSource) { e.source = source }

// Breaker exposes the circuit breaker guarding the ontology path (for
// /readyz and /metrics).
func (e *Engine) Breaker() *resilience.Breaker { return e.breaker }

// resolved is one keyword's resolved posting list. The compact form is
// set only when the list came from a CompactSource (the prebuilt index
// or a mapped arena); on-demand built lists merge through plain
// cursors. When the merge path needs no materialized list (the fast
// merge reads cursors), a compact source may resolve with list nil and
// only compact set — postings then stream zero-copy from the source's
// backing bytes and are never decoded into heap.
type resolved struct {
	list    dil.List
	compact *dil.CompactList
	delta   bool // true when a live delta overlay changed the list
}

// n returns the posting count in whichever representation is present.
func (r resolved) n() int {
	if r.list != nil || r.compact == nil {
		return len(r.list)
	}
	return r.compact.Len()
}

// list resolves one keyword's posting list, building and caching it on
// demand. Concurrent requests for the same missing keyword build once.
// The degraded return is true when the list was built IR-only because
// the ontology path failed or the breaker was open (see degrade.go).
// Each resolution is recorded as a "query.keyword" span whose source
// attribute says how it was answered (index, cache, built).
func (e *Engine) list(ctx context.Context, kw string, ov OverlayView, needList bool) (resolved, bool, error) {
	ctx, sp := obs.StartSpan(ctx, "query.keyword")
	sp.SetAttr("keyword", kw)
	defer sp.End()
	r, degraded, err := e.listInner(ctx, sp, kw, ov, needList)
	if err == nil && ov != nil {
		r, degraded, err = e.combine(ctx, sp, kw, ov, r, degraded)
	}
	if degraded {
		sp.SetAttr("degraded", true)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetAttr("postings", r.n())
	}
	return r, degraded, err
}

// combine merges the live delta overlay into one keyword's resolved
// base list. If the delta's ontology path fails, the whole keyword
// degrades to IR-only scoring — base and delta postings must score
// under the same NS function or their relative order would be
// meaningless.
func (e *Engine) combine(ctx context.Context, sp *obs.Span, kw string, ov OverlayView, r resolved, degraded bool) (resolved, bool, error) {
	merged, changed, err := ov.Combine(ctx, kw, r.list, degraded)
	if err != nil {
		if isContextErr(err) || ctx.Err() != nil {
			return resolved{}, false, err
		}
		e.breaker.Failure()
		obs.Default().WarnContext(ctx, "keyword degraded to IR-only scoring (delta overlay)",
			"keyword", kw, "error", err.Error())
		base := r.list
		if !degraded {
			var tag string
			if ov.Dirty() {
				tag = versionTag(ov.Version())
			}
			var ferr error
			if base, ferr = e.listIR(ctx, kw, tag); ferr != nil {
				return resolved{}, false, ferr
			}
		}
		r = resolved{list: base}
		degraded = true
		if merged, changed, err = ov.Combine(ctx, kw, base, true); err != nil {
			return resolved{}, false, err
		}
	}
	if changed {
		r = resolved{list: merged, delta: true}
		sp.SetAttr("delta", true)
	}
	return r, degraded, nil
}

// KeywordSources names how a keyword's posting list can be answered:
// from the prebuilt index (or a mapped arena), from the on-demand
// keyword cache, or built on demand. Indexed by keywordSource.
var KeywordSources = [...]string{"index", "cache", "built"}

type keywordSource int

const (
	fromIndex keywordSource = iota
	fromCache
	fromBuilt
)

// keywordResolutions counts resolutions per source and overlay state
// (clean, dirty), backing xontorank_keyword_resolutions_total on
// /metrics.
var keywordResolutions [len(KeywordSources)][2]atomic.Int64

// KeywordResolutions reads the process-wide count of keyword
// resolutions answered from source (a KeywordSources entry) under a
// clean or a dirty delta overlay.
func KeywordResolutions(source string, dirty bool) int64 {
	for i, s := range KeywordSources {
		if s == source {
			return keywordResolutions[i][overlaySlot(dirty)].Load()
		}
	}
	return 0
}

// resolvedFrom tags the query.keyword span with how the keyword was
// answered and counts the resolution; dirty says whether a dirty
// overlay bypassed the prebuilt lists.
func resolvedFrom(sp *obs.Span, src keywordSource, dirty bool) {
	sp.SetAttr("source", KeywordSources[src])
	keywordResolutions[src][overlaySlot(dirty)].Add(1)
}

func overlaySlot(dirty bool) int {
	if dirty {
		return 1
	}
	return 0
}

func (e *Engine) listInner(ctx context.Context, sp *obs.Span, kw string, ov OverlayView, needList bool) (resolved, bool, error) {
	if err := ctx.Err(); err != nil {
		return resolved{}, false, err
	}
	// A dirty delta overlay invalidates prebuilt base lists: their
	// baked-in scores predate the live collection statistics. Resolve
	// through the builder instead, caching under a version-tagged key so
	// lists built against a superseded state can never be served after
	// the next ingest (the stale entries age out of the LRU).
	var tag string
	if ov != nil && ov.Dirty() {
		tag = versionTag(ov.Version())
		sp.SetAttr("base_bypassed", true)
	}
	if tag == "" {
		cs, compactable := e.source.(CompactSource)
		if !needList && compactable {
			// Zero-copy path: the fast merge reads cursors directly, so a
			// compact source (prebuilt index or mapped arena) resolves
			// without materializing a heap list at all.
			if c := cs.Compact(kw); c != nil {
				resolvedFrom(sp, fromIndex, false)
				return resolved{compact: c}, false, nil
			}
		}
		if l := e.source.List(kw); l != nil {
			resolvedFrom(sp, fromIndex, false)
			r := resolved{list: l}
			if compactable {
				r.compact = cs.Compact(kw)
			}
			return r, false, nil
		}
	}
	if e.builder == nil {
		sp.SetAttr("source", "none")
		return resolved{}, false, nil
	}
	if fb, ok := e.builder.(FallibleKeywordBuilder); ok {
		l, degraded, err := e.listResilient(ctx, sp, kw, tag, fb)
		return resolved{list: l}, degraded, err
	}
	ckey := tag + kw
	if l, ok := e.cache.Get(ckey); ok {
		resolvedFrom(sp, fromCache, tag != "")
		return resolved{list: l}, false, nil
	}
	resolvedFrom(sp, fromBuilt, tag != "")
	l, err, _ := e.flights.Do(ctx, ckey, func(fctx context.Context) (dil.List, error) {
		if l, ok := e.cache.Get(ckey); ok { // raced with another build
			return l, nil
		}
		l := e.buildPlain(fctx, kw)
		e.cache.Set(ckey, l)
		return l, nil
	})
	return resolved{list: l}, false, err
}

// resolve gathers every keyword's posting list, one goroutine per
// keyword for multi-keyword queries. It honors ctx: cancellation stops
// the wait and returns the context error (in-flight builds complete in
// the background and still populate the cache). The second return names
// the keywords whose lists degraded to IR-only scoring. The whole stage
// is one "query.resolve_keywords" span with a "query.keyword" child per
// keyword.
func (e *Engine) resolve(ctx context.Context, keywords []Keyword, ov OverlayView, needList bool) ([]resolved, []string, error) {
	ctx, sp := obs.StartSpan(ctx, "query.resolve_keywords")
	sp.SetAttr("keywords", len(keywords))
	defer sp.End()
	lists := make([]resolved, len(keywords))
	degraded := make([]bool, len(keywords))
	if len(keywords) == 1 {
		l, deg, err := e.list(ctx, string(keywords[0]), ov, needList)
		if err != nil {
			return nil, nil, err
		}
		lists[0], degraded[0] = l, deg
		return lists, degradedKeywords(keywords, degraded), nil
	}
	errs := make([]error, len(keywords))
	var wg sync.WaitGroup
	for i, kw := range keywords {
		wg.Add(1)
		go func(i int, kw string) {
			defer wg.Done()
			lists[i], degraded[i], errs[i] = e.list(ctx, kw, ov, needList)
		}(i, string(kw))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return lists, degradedKeywords(keywords, degraded), nil
}

// degradedKeywords collects the (deduplicated, query-ordered) keywords
// flagged degraded.
func degradedKeywords(keywords []Keyword, flags []bool) []string {
	var out []string
	seen := make(map[string]bool)
	for i, d := range flags {
		kw := string(keywords[i])
		if d && !seen[kw] {
			seen[kw] = true
			out = append(out, kw)
		}
	}
	return out
}

// Info reports how a search was answered.
type Info struct {
	// Degraded is true when at least one keyword's list fell back to
	// IR-only scoring (NS(v,w) = IRS(v,w)) because the ontology path
	// failed or its breaker was open.
	Degraded bool `json:"degraded"`
	// DegradedKeywords names the affected keywords, in query order.
	DegradedKeywords []string `json:"degraded_keywords,omitempty"`
}

// Request is the unified query-phase request, mirrored by the system
// facade's SearchRequest. The zero value of each option is the
// default.
type Request struct {
	// Keywords is the parsed query.
	Keywords []Keyword
	// K bounds the result list (<= 0 uses the engine default; above
	// MaxK clamps).
	K int
	// Offset skips the first Offset ranked results before the K
	// returned ones — paging pushed down into the merge: the engine
	// keeps a K+Offset heap and prunes against its threshold, so no
	// caller ever truncates after the merge. Negative means 0; above
	// MaxOffset clamps.
	Offset int
	// Ranked selects XRANK's RDIL ranked-access algorithm (identical
	// results, early termination — profitable for small k over long
	// posting lists) instead of the sort-merge DIL algorithm.
	Ranked bool
}

// PruneStats reports the block-max top-k pruning work of one query's
// merge (zero-valued for the RDIL path, which has its own access
// pattern). Under sharded serving the per-shard stats are summed.
type PruneStats struct {
	// PostingsScored is how many postings the merge consumed.
	PostingsScored int64 `json:"postings_scored"`
	// BlocksSkipped is how many whole posting-list blocks seeks
	// bypassed without decoding (document zig-zag plus threshold
	// skips).
	BlocksSkipped int64 `json:"blocks_skipped"`
	// DocsSkipped is how many aligned documents the top-k threshold
	// pruned without scoring.
	DocsSkipped int64 `json:"docs_skipped"`
	// EarlyTerminated is true when the merge ended before the lists
	// drained because no remaining posting could reach the top k.
	EarlyTerminated bool `json:"early_terminated"`
}

// Merge folds another merge's stats in (shard fan-out aggregation).
func (p *PruneStats) Merge(o PruneStats) {
	p.PostingsScored += o.PostingsScored
	p.BlocksSkipped += o.BlocksSkipped
	p.DocsSkipped += o.DocsSkipped
	p.EarlyTerminated = p.EarlyTerminated || o.EarlyTerminated
}

// pruneStats converts one merge's counters to the response schema.
func pruneStats(c MergeCounters) PruneStats {
	return PruneStats{
		PostingsScored:  c.Postings,
		BlocksSkipped:   c.BlocksSkipped,
		DocsSkipped:     c.DocsSkipped,
		EarlyTerminated: c.EarlyTerminations > 0,
	}
}

// Response is what one engine query produces.
type Response struct {
	// Results are ranked by descending score; ties break by Dewey order
	// for determinism. The requested Offset is already applied.
	Results []Result
	// Info reports degradation (IR-only keywords).
	Info Info
	// Pruning reports the merge's top-k pruning work.
	Pruning PruneStats
}

// Query is the single query-phase entry point. The only possible
// error is the context's. The whole run is a "query.search" span:
// keyword resolution (with per-keyword and build-stage children)
// followed by a "query.dil_merge" span for the DIL (or RDIL) list
// merge.
func (e *Engine) Query(ctx context.Context, req Request) (*Response, error) {
	if len(req.Keywords) == 0 {
		return &Response{}, nil
	}
	k := clampWindowK(req.K, e.params.K)
	offset := ClampOffset(req.Offset)
	// The merge works toward the full offset+k prefix; the offset is
	// sliced off before returning, so paging costs one deeper heap, not
	// a post-merge truncation.
	n := k + offset
	ctx, sp := obs.StartSpan(ctx, "query.search")
	sp.SetAttr("k", k)
	if offset > 0 {
		sp.SetAttr("offset", offset)
	}
	sp.SetAttr("ranked", req.Ranked)
	defer sp.End()

	var ov OverlayView
	if e.overlay != nil {
		ov = e.overlay.Acquire()
	}
	// RDIL's ranked access and the delta overlay's combine walk
	// materialized lists; otherwise a keyword may resolve compact-only
	// and stream zero-copy into the top-k merge.
	needList := req.Ranked || ov != nil
	res, degraded, err := e.resolve(ctx, req.Keywords, ov, needList)
	if err != nil {
		return nil, err
	}
	resp := &Response{Info: Info{Degraded: len(degraded) > 0, DegradedKeywords: degraded}}
	deltaMerged := false
	for _, r := range res {
		if r.delta {
			deltaMerged = true
			break
		}
	}
	lists := make([]dil.List, len(res))
	compact := make([]*dil.CompactList, len(res))
	for i, r := range res {
		if r.n() == 0 {
			return resp, nil
		}
		lists[i], compact[i] = r.list, r.compact
	}

	_, msp := obs.StartSpan(ctx, "query.dil_merge")
	msp.SetAttr("algorithm", map[bool]string{false: "DIL", true: "RDIL"}[req.Ranked])
	if deltaMerged {
		msp.SetAttr("delta_merged", true)
	}
	if req.Ranked {
		resp.Results = page(RunRanked(lists, e.params.Decay, n), offset)
	} else {
		msp.SetAttr("merge", "topk")
		results, mc := runFast(lists, compact, e.params.Decay, n)
		resp.Pruning = pruneStats(mc)
		msp.SetAttr("postings", resp.Pruning.PostingsScored)
		msp.SetAttr("blocks_skipped", resp.Pruning.BlocksSkipped)
		msp.SetAttr("docs_skipped", resp.Pruning.DocsSkipped)
		if resp.Pruning.EarlyTerminated {
			msp.SetAttr("early_terminated", true)
		}
		resp.Results = page(results, offset)
	}
	msp.SetAttr("results", len(resp.Results))
	msp.End()
	return resp, nil
}

// page drops the first offset ranked results (the engine's one place
// paging is applied; no serving-path caller slices after the merge).
func page(results []Result, offset int) []Result {
	if offset <= 0 {
		return results
	}
	if offset >= len(results) {
		return nil
	}
	return results[offset:]
}

// ResultNode resolves a result's root element in the corpus.
func ResultNode(c *xmltree.Corpus, r Result) *xmltree.Node {
	return c.NodeAt(r.Root)
}

// Fragment renders the result's subtree as indented XML (the paper's
// Figure 4 presentation).
func Fragment(c *xmltree.Corpus, r Result) string {
	n := ResultNode(c, r)
	if n == nil {
		return ""
	}
	return xmltree.XMLString(n)
}
