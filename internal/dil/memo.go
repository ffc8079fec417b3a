package dil

import (
	"sync"

	"repro/internal/ontoscore"
)

// memoEntries bounds each kind of entry a Memo keeps. Past it, values
// are still computed but no longer kept, so a state that lives long
// under a stream of distinct keywords cannot grow its memo without
// bound.
const memoEntries = 4096

// Memo holds per-keyword results that every builder over one corpus
// state computes identically, so each is computed once per state:
//
//   - the keyword's normalization divisor (Section III), which the text
//     branch of every strategy shares — the owner (a Calibrator) keeps
//     these;
//   - OntoScore expansions, keyed by the computer that ran them and the
//     strategy: OS(O, w, c) depends on the ontology alone, so a base
//     builder and a delta builder holding the same computer share them.
//
// Entries are never invalidated: whoever owns the memo drops it with
// the state it describes. Safe for concurrent use.
type Memo struct {
	mu    sync.RWMutex
	norms map[string]float64
	onto  map[ontoKey]ontoscore.Scores
}

type ontoKey struct {
	c        *ontoscore.Computer
	strategy ontoscore.Strategy
	keyword  string
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{norms: map[string]float64{}, onto: map[ontoKey]ontoscore.Scores{}}
}

// Norm returns the memoized normalization divisor of a keyword.
func (m *Memo) Norm(keyword string) (float64, bool) {
	m.mu.RLock()
	v, ok := m.norms[keyword]
	m.mu.RUnlock()
	return v, ok
}

// SetNorm records a keyword's normalization divisor.
func (m *Memo) SetNorm(keyword string, v float64) {
	m.mu.Lock()
	if len(m.norms) < memoEntries {
		m.norms[keyword] = v
	}
	m.mu.Unlock()
}

// Onto returns the memoized expansion of keyword under strategy s
// through computer c. The scores are shared: callers must not modify
// them.
func (m *Memo) Onto(c *ontoscore.Computer, s ontoscore.Strategy, keyword string) (ontoscore.Scores, bool) {
	m.mu.RLock()
	v, ok := m.onto[ontoKey{c, s, keyword}]
	m.mu.RUnlock()
	return v, ok
}

// SetOnto records an expansion (see Onto).
func (m *Memo) SetOnto(c *ontoscore.Computer, s ontoscore.Strategy, keyword string, scores ontoscore.Scores) {
	m.mu.Lock()
	if len(m.onto) < memoEntries {
		m.onto[ontoKey{c, s, keyword}] = scores
	}
	m.mu.Unlock()
}
