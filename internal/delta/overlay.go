package delta

import (
	"context"

	"repro/internal/dil"
	"repro/internal/ir"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// The exactness wiring. For live base+delta results to be
// byte-identical to a full rebuild, three global quantities must track
// the live corpus (base + delta − tombstones) rather than the frozen
// base snapshot:
//
//   - collection statistics (N, total length, DF) — served by the
//     stats views below, layered as base snapshot + adjustment;
//   - the per-keyword BM25 normalization divisor (Section III) —
//     served by the calibrator, an authoritative max over the LIVE
//     containing set of base and delta builders;
//   - the posting lists themselves — served by the query-engine
//     overlay, which drops tombstoned postings and merges the delta's.

// stateStatsView pins one segment state: installed on that state's own
// delta builders, so their scores are internally consistent with the
// snapshot a query acquired.
type stateStatsView struct{ s *segState }

func (v stateStatsView) StatsN() int { return v.s.baseStats.N + v.s.adj.n }
func (v stateStatsView) StatsTotalLen() int64 {
	return v.s.baseStats.TotalLen + v.s.adj.totalLen
}
func (v stateStatsView) StatsDF(term string) int {
	return v.s.baseStats.DF[term] + v.s.adj.df[term]
}

// liveStatsView follows the segment's current state: installed once on
// the base generation's builders, it makes their BM25 track every
// ingest without touching the builders again.
type liveStatsView struct{ seg *Segment }

func (v liveStatsView) StatsN() int {
	s := v.seg.state.Load()
	return s.baseStats.N + s.adj.n
}
func (v liveStatsView) StatsTotalLen() int64 {
	s := v.seg.state.Load()
	return s.baseStats.TotalLen + s.adj.totalLen
}
func (v liveStatsView) StatsDF(term string) int {
	s := v.seg.state.Load()
	return s.baseStats.DF[term] + s.adj.df[term]
}

// StatsView returns the live statistics view to install on base
// builders (SetGlobalTextStatsView).
func (s *Segment) StatsView() ir.StatsView { return liveStatsView{s} }

// Calibrator returns the keyword-norm calibrator for base builders of
// one strategy: the maximum raw BM25 over the live containing set,
// spanning the full base corpus (minus tombstones) and the live delta.
// The base builder is read through a provider so generation swaps
// don't strand the calibrator on a dropped builder.
func (s *Segment) Calibrator(strategy ontoscore.Strategy, base func() *dil.Builder) dil.Calibrator {
	return liveCalibrator{seg: s, base: base}
}

// liveCalibrator follows the segment's current state. The divisor does
// not depend on the strategy (only the text branch of Eq. 5 is
// normalized), so the builders of every strategy share one per state.
type liveCalibrator struct {
	seg  *Segment
	base func() *dil.Builder
}

func (c liveCalibrator) KeywordNorm(keyword string) float64 {
	return c.seg.keywordNorm(c.seg.state.Load(), keyword, c.base(), nil)
}

// Pin implements dil.PinningCalibrator: when the pinning builder is the
// calibration authority itself, its raw pass supplies the base share of
// the divisor.
func (c liveCalibrator) Pin(b *dil.Builder) func(string, func(func(int32) bool) float64) float64 {
	st, base := c.seg.state.Load(), c.base()
	return func(keyword string, local func(dead func(int32) bool) float64) float64 {
		if b != base {
			local = nil // a shard slot's pass covers its partition only
		}
		return c.seg.keywordNorm(st, keyword, base, local)
	}
}

// stateCalibrator is the pinned variant installed on a state's own
// delta builders.
type stateCalibrator struct {
	seg  *Segment
	s    *segState
	base func() *dil.Builder
}

func (c stateCalibrator) KeywordNorm(keyword string) float64 {
	return c.seg.keywordNorm(c.s, keyword, c.base(), nil)
}

// keywordNorm is st's normalization divisor for a keyword: the maximum
// raw BM25 over the live containing set, base and delta. baseMax, when
// non-nil, is the base builder's RawTextMaxLive read off a raw pass
// that began under st.
//
// The divisor is memoized on st. That is exact because each divisor
// belongs to one immutable state, and it is kept only when every input
// was st's own: base must index st's base corpus (a reload wires the
// new generation before the generations swap), and st must still be
// current after the computation — the base builder's statistics view
// follows the segment's current state, and a state never becomes
// current again once superseded, so a state current at the end was
// current throughout.
func (s *Segment) keywordNorm(st *segState, keyword string, base *dil.Builder, baseMax func(dead func(int32) bool) float64) float64 {
	if v, ok := st.memo.Norm(keyword); ok {
		return v
	}
	max := 0.0
	if base != nil {
		if baseMax != nil {
			max = baseMax(st.isDead)
		} else {
			max = base.RawTextMaxLive(keyword, st.isDead)
		}
	}
	if st.text != nil {
		if m := st.text.RawTextMaxLive(keyword, st.isDead); m > max {
			max = m
		}
	}
	if (base == nil || base.Corpus() == st.base) && s.state.Load() == st {
		st.memo.SetNorm(keyword, max)
	}
	return max
}

// InstallBase wires a base builder of one strategy to this segment:
// the live statistics view and the live calibrator. Call while the
// builder is off-line (generation construction, before swap).
func (s *Segment) InstallBase(strategy ontoscore.Strategy, base func() *dil.Builder) {
	b := base()
	if b == nil {
		return
	}
	b.SetGlobalTextStatsView(s.StatsView())
	b.SetCalibrator(s.Calibrator(strategy, base))
	b.SetMemo(func() *dil.Memo { return s.state.Load().memo })
}

// SetBaseProvider completes the delta builders' calibration: their
// normalization divisor must span the base corpus too. Called by the
// serving layer with a provider returning the full-corpus builder of
// each strategy, at wiring time (before traffic) — subsequent rebuilds
// pick it up under the apply lock.
func (s *Segment) SetBaseProvider(base func(strategy ontoscore.Strategy) *dil.Builder) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.baseProvider = base
	st := s.state.Load()
	for strat, b := range st.builders {
		strat := strat
		b.SetCalibrator(stateCalibrator{seg: s, s: st, base: func() *dil.Builder { return base(strat) }})
	}
}

// Overlay returns the query-engine overlay for one strategy and shard
// slot. shard < 0 (or an unsharded deployment) serves every delta
// posting; a shard slot serves only postings of documents it owns —
// tombstone suppression applies everywhere, since a shard's base lists
// only ever contain its own documents.
func (s *Segment) Overlay(strategy ontoscore.Strategy, shard int) query.Overlay {
	return segOverlay{seg: s, strategy: strategy, shard: shard}
}

type segOverlay struct {
	seg      *Segment
	strategy ontoscore.Strategy
	shard    int
}

// Acquire snapshots the current state; every keyword of one query
// merges against the same snapshot.
func (o segOverlay) Acquire() query.OverlayView {
	return &segView{s: o.seg.state.Load(), strategy: o.strategy, shard: o.shard}
}

type segView struct {
	s        *segState
	strategy ontoscore.Strategy
	shard    int
}

func (v *segView) Version() uint64 { return v.s.version }

// Dirty reports whether this state diverges from the base snapshot at
// all: any live delta document or tombstone moves the collection
// statistics and normalization divisors, which invalidates every
// prebuilt base list's baked-in scores.
func (v *segView) Dirty() bool {
	return len(v.s.live) > 0 || len(v.s.dead) > 0
}

func (v *segView) Combine(ctx context.Context, keyword string, base dil.List, irOnly bool) (dil.List, bool, error) {
	st := v.s
	// Drop tombstoned base postings (copy-on-first-drop). A document's
	// postings are contiguous in Dewey order, so each document is
	// looked up once.
	filtered := base
	dropped := false
	if len(st.dead) > 0 {
		doc, dead := int32(-1), false
		for i, p := range base {
			if d := p.ID.DocID(); d != doc {
				doc, dead = d, st.dead[d]
			}
			if dead {
				if !dropped {
					filtered = append(dil.List{}, base[:i]...)
					dropped = true
				}
				continue
			}
			if dropped {
				filtered = append(filtered, p)
			}
		}
	}
	// Build the delta's postings for the keyword under the same NS
	// function the base list used.
	var deltaList dil.List
	if b := st.builders[v.strategy]; b != nil {
		if irOnly {
			deltaList = b.BuildKeywordIRCtx(ctx, keyword)
		} else {
			var err error
			deltaList, err = b.BuildKeywordECtx(ctx, keyword)
			if err != nil {
				return nil, false, err
			}
		}
		// Suppress superseded delta versions and, on a shard slot,
		// postings owned elsewhere.
		kept := deltaList[:0:0]
		for _, p := range deltaList {
			id := p.ID.DocID()
			if st.dead[id] {
				continue
			}
			if v.shard >= 0 {
				if e, ok := st.byID[id]; !ok || e.owner != v.shard {
					continue
				}
			}
			kept = append(kept, p)
		}
		deltaList = kept
	}
	if !dropped && len(deltaList) == 0 {
		return base, false, nil
	}
	if len(deltaList) == 0 {
		return filtered, true, nil
	}
	return mergeDewey(filtered, deltaList), true, nil
}

// mergeDewey merges two Dewey-ordered lists; base and delta documents
// are disjoint, so no key appears twice.
func mergeDewey(a, b dil.List) dil.List {
	out := make(dil.List, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].ID.Compare(b[j].ID) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
