package delta

import (
	"context"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/ontoscore"
)

// BenchmarkBuildKeywordDirty times one keyword resolution under a dirty
// overlay — the work a live-ingest deployment does for every keyword
// its keyword cache misses: the base builder's on-demand build, then
// Combine's tombstone filter and delta build. The corpus is ~300
// generated documents with a 16-document delta, all four strategies
// wired to one segment as the server wires them, and the keywords are
// the vocabulary's highest-df tokens (the longest candidate sets). A
// write lands (timer stopped) after every pass over the keywords, so
// each state sees each keyword once per strategy, as under a stream
// whose keyword cache is purged by the writes.
func BenchmarkBuildKeywordDirty(b *testing.B) {
	const baseN, deltaN = 300, 16
	fx := newFixture(b, baseN+deltaN, 5)
	base := fx.baseCorpus(b, baseN)
	systems := map[ontoscore.Strategy]*core.System{}
	for _, strat := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = strat
		systems[strat] = core.NewMulti(base, fx.coll, cfg)
	}
	builder := func(st ontoscore.Strategy) *dil.Builder { return systems[st].Builder() }
	seg := NewSegment(base, builder(ontoscore.StrategyNone).LocalTextStats(), Config{
		Coll: fx.coll, Strategies: ontoscore.Strategies(), DIL: core.DefaultConfig().DIL,
	})
	seg.SetBaseProvider(builder)
	for _, strat := range ontoscore.Strategies() {
		strat := strat
		seg.InstallBase(strat, func() *dil.Builder { return builder(strat) })
	}
	seq := uint64(0)
	apply := func(kind OpKind, name string) {
		seq++
		op := Op{Seq: seq, Kind: kind, Name: name}
		if kind == OpPut {
			op.Body = fx.bodies[name]
		}
		if err := seg.Apply(op); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range fx.names[baseN : baseN+deltaN] {
		apply(OpPut, name)
	}

	df := builder(ontoscore.StrategyNone).LocalTextStats().DF
	keywords := make([]string, 0, len(df))
	for kw := range df {
		keywords = append(keywords, kw)
	}
	sort.Slice(keywords, func(i, j int) bool {
		if df[keywords[i]] != df[keywords[j]] {
			return df[keywords[i]] > df[keywords[j]]
		}
		return keywords[i] < keywords[j]
	})
	keywords = keywords[:8]

	ctx := context.Background()
	strategies := ontoscore.Strategies()
	churn := fx.names[baseN]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(keywords) == 0 {
			b.StopTimer()
			// Replace one delta document: the delta keeps its size, the
			// state (and with it every memo) moves on.
			apply(OpPut, churn)
			b.StartTimer()
		}
		kw := keywords[i%len(keywords)]
		for _, strat := range strategies {
			l, err := builder(strat).BuildKeywordECtx(ctx, kw)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := seg.Overlay(strat, -1).Acquire().Combine(ctx, kw, l, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}
