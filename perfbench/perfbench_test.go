package main

import (
	"testing"

	"repro/internal/ontoscore"
)

// smallSpec keeps the fixture tests fast; determinism does not depend
// on size.
var smallSpec = corpusSpec{Docs: 20, Concepts: 200, HeldOut: 4}

func fixtureFor(t *testing.T, name string, seed int64) *fixture {
	t.Helper()
	fx, err := newFixture(workloads[name], seed, smallSpec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestSeedDeterminism: a seed fixes the corpus (by fingerprint), the
// held-out records and the request stream; another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b, c := fixtureFor(t, name, 7), fixtureFor(t, name, 7), fixtureFor(t, name, 8)
			if a.base.Fingerprint() != b.base.Fingerprint() {
				t.Errorf("seed 7 twice: corpus fingerprints %#x and %#x", a.base.Fingerprint(), b.base.Fingerprint())
			}
			if a.base.Fingerprint() == c.base.Fingerprint() {
				t.Errorf("seeds 7 and 8 share corpus fingerprint %#x", a.base.Fingerprint())
			}
			for i := range a.data.heldOut {
				if string(a.data.heldOut[i].body) != string(b.data.heldOut[i].body) {
					t.Fatalf("seed 7 twice: held-out record %d differs", i)
				}
			}
			differ := 0
			for i := uint64(0); i < 2000; i++ {
				ra, rb, rc := a.stream.at(i), b.stream.at(i), c.stream.at(i)
				if ra != rb {
					t.Fatalf("seed 7 twice: request %d is %+v and %+v", i, ra, rb)
				}
				if ra != rc {
					differ++
				}
			}
			if differ < 1000 {
				t.Errorf("seeds 7 and 8 differ in only %d of 2000 requests", differ)
			}
		})
	}
}

// TestStreamShape: every request is well formed for the /search API.
func TestStreamShape(t *testing.T) {
	fx := fixtureFor(t, "search_ondemand", 3)
	for i := uint64(0); i < 2000; i++ {
		r := fx.stream.at(i)
		if r.Query == "" || r.K < 1 || r.Offset < 0 {
			t.Fatalf("request %d malformed: %+v", i, r)
		}
		if _, err := ontoscore.ParseStrategy(r.Strategy); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestSupportedPercentile pins the tail rule: a percentile is reported
// only with at least ten samples beyond its nearest rank, else the
// next lower ladder step that has them.
func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{1000, 99, 99},  // rank 990, 10 beyond
		{999, 99, 95},   // rank 990, 9 beyond
		{10000, 99, 99}, // rank 9900
		{100, 90, 90},   // rank 90, 10 beyond
		{99, 90, 75},    // rank 90, 9 beyond
		{40, 99, 75},    // rank 30, 10 beyond
		{10, 99, 50},    // nothing supported; the median is reported
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	d := newDist(v)
	if got := d.p(50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if p, got := d.tail(99); p != 99 || got != 990 {
		t.Errorf("tail(99) of 1..1000 = p%v %v, want p99 990", p, got)
	}
}
