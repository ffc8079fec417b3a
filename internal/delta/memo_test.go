package delta

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/ontoscore"
	"repro/internal/resilience"
)

// Under a dirty overlay the ontology failpoint still fires on every
// build, even once the keyword's OntoScore expansion is memoized for
// the state: the fault degrades the keyword to IR-only scoring and
// counts toward the breaker, whether it hits the base build or the
// delta build inside Combine.
func TestFailpointFiresOnMemoizedKeyword(t *testing.T) {
	const kw = "asthma"
	for _, tc := range []struct {
		name  string
		delta bool // let the base build through and fail the delta's
	}{
		{"base build", false},
		{"delta combine", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, 9, 7)
			strat := ontoscore.StrategyRelationships
			cfg := core.DefaultConfig()
			cfg.Strategy = strat
			cfg.Query.Retry = resilience.RetryPolicy{MaxAttempts: 1}
			cfg.Query.Breaker = resilience.BreakerConfig{Threshold: 1}
			sys := core.NewMulti(fx.baseCorpus(t, 6), fx.coll, cfg)
			seg := wireSegment(sys, strat, Config{
				Coll: fx.coll, Strategies: []ontoscore.Strategy{strat}, DIL: cfg.DIL,
			})
			replayScript(t, seg, fx, differentialScript(fx)[:1])

			req := core.SearchRequest{Query: kw, K: 10}
			want, err := sys.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if want.Info.Degraded || len(want.Results) == 0 {
				t.Fatalf("warm-up query: degraded=%v results=%d", want.Info.Degraded, len(want.Results))
			}
			st := seg.state.Load()
			for _, ont := range fx.coll.Ontologies() {
				c := sys.Builder().Computer(ont.SystemID)
				if got := st.builders[strat].Computer(ont.SystemID); got != c {
					t.Fatalf("delta builder does not share the base computer of %s", ont.SystemID)
				}
				if _, ok := st.memo.Onto(c, strat, kw); !ok {
					t.Fatalf("expansion of %q against %s not memoized after the warm-up", kw, ont.SystemID)
				}
			}

			sys.PurgeKeywordCache() // same state, so the memo stays
			var after int64
			if tc.delta {
				after = int64(fx.coll.Len()) // the base build hits once per system
			}
			faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{After: after})
			got, err := sys.Query(context.Background(), req)
			faultinject.Disable(dil.FPOntoResolve)
			if err != nil {
				t.Fatal(err)
			}
			if seg.state.Load() != st {
				t.Fatal("state moved during the test")
			}
			if !got.Info.Degraded || len(got.Info.DegradedKeywords) != 1 || got.Info.DegradedKeywords[0] != kw {
				t.Fatalf("faulted query not degraded: %+v", got.Info)
			}
			if m := sys.Breaker().Metrics(); m.Opens != 1 {
				t.Fatalf("breaker opens = %d, want 1 (the fault must count)", m.Opens)
			}
		})
	}
}

// TestDifferentialEveryMutation wires all four strategies to one
// segment, as the server does, and after every mutation of the script
// (add, replace a base document, tombstone a base document, delete a
// delta document, replace a delta document) asks the same queries and
// compares them with a rebuild of that moment's corpus. The same
// keywords are resolved in every state, so a normalization divisor or
// an OntoScore expansion memoized for a superseded state and served in
// a later one would show as a divergence.
func TestDifferentialEveryMutation(t *testing.T) {
	fx := newFixture(t, 9, 7)
	const baseN = 6
	base := fx.baseCorpus(t, baseN)
	cfgs := map[ontoscore.Strategy]core.Config{}
	systems := map[ontoscore.Strategy]*core.System{}
	for _, strat := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = strat
		cfgs[strat] = cfg
		systems[strat] = core.NewMulti(base, fx.coll, cfg)
	}
	seg := NewSegment(base, systems[ontoscore.StrategyNone].Builder().LocalTextStats(), Config{
		Coll: fx.coll, Strategies: ontoscore.Strategies(), DIL: core.DefaultConfig().DIL,
	})
	seg.SetBaseProvider(func(st ontoscore.Strategy) *dil.Builder { return systems[st].Builder() })
	for strat, sys := range systems {
		sys := sys
		seg.InstallBase(strat, func() *dil.Builder { return sys.Builder() })
		sys.SetOverlay(seg.Overlay(strat, -1))
		sys.SetAuxDocs(seg)
	}

	script := differentialScript(fx)
	for step := 0; step <= len(script); step++ {
		if step > 0 {
			o := script[step-1]
			op := Op{Seq: uint64(step), Kind: o.kind, Name: o.name}
			if o.kind == OpPut {
				op.Body = fx.bodies[o.body]
			}
			if err := seg.Apply(op); err != nil {
				t.Fatalf("apply %d (%s %s): %v", step, o.kind, o.name, err)
			}
		}
		live, deltaID := trackScript(fx, baseN, script[:step])
		ref := referenceCorpus(t, fx, base, live, deltaID)
		for _, strat := range ontoscore.Strategies() {
			label := fmt.Sprintf("%s after %d ops", strat, step)
			compareSearches(t, label, systems[strat], core.NewMulti(ref, fx.coll, cfgs[strat]))
		}
	}
}
