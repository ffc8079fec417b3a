package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// fixture is what both run modes share: the generated data set, the
// base corpus as the server will load it, and the request stream.
type fixture struct {
	data   *dataSet
	base   *xmltree.Corpus
	coll   *ontology.Collection
	stream *stream
}

func newFixture(w workload, seed int64, spec corpusSpec, dir string) (*fixture, error) {
	ds, err := generateData(filepath.Join(dir, "data"), seed, spec)
	if err != nil {
		return nil, fmt.Errorf("generating data: %w", err)
	}
	coll, err := loadCollection(ds.dir)
	if err != nil {
		return nil, err
	}
	base, err := loadCorpus(ds.dir)
	if err != nil {
		return nil, err
	}
	// The server's indexed vocabulary and its document frequencies, from
	// the same builder the server constructs.
	cfg := core.DefaultConfig()
	b := dil.NewMultiBuilder(base, coll, cfg.Strategy, cfg.DIL)
	stats := b.LocalTextStats()
	df := func(t string) int { return stats.DF[t] }
	s := newStream(seed, w.stream, b.Vocabulary(cfg.VocabularyHops), df, ds.phrases)
	return &fixture{data: ds, base: base, coll: coll, stream: s}, nil
}

// checkSystems builds the in-process systems the output check compares
// against: over the base corpus, or for the ingest workload over the
// corpus the writer left behind. It runs after the window, so the
// benchmark process holds no index while it measures.
func (f *fixture) checkSystems(wr *writer) (map[string]*core.System, error) {
	corpus := f.base
	if wr != nil {
		var err error
		if corpus, err = finalCorpus(f.base, wr); err != nil {
			return nil, err
		}
	}
	return newSystems(corpus, f.coll), nil
}

// firstDeltaID is the document ID the server gives the first ingested
// record: one past the largest base ID.
func (f *fixture) firstDeltaID() int32 {
	var max int32 = -1
	for _, d := range f.base.Docs() {
		if d.ID > max {
			max = d.ID
		}
	}
	return max + 1
}

// prewarm builds the stream's phrase pool into the keyword caches
// (one single-phrase search per phrase and strategy), so the window
// of a prebuilt workload never waits on the on-demand builder.
func prewarm(base string, s *stream, t *tally) {
	if s.cfg.PhrasePool == 0 {
		return
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	for _, p := range s.phrases {
		for _, st := range strategyNames {
			req := request{Strategy: st, Query: `"` + p + `"`, K: 10}
			if _, err := search(client, base, req); err != nil {
				t.fail("pre-warm %s: %v", req.path(), err)
			} else {
				t.ok()
			}
		}
	}
}

// leg is one fresh start of a child xontoserve and the share of the
// window it serves. A run is setupRuns legs in a row: each start is
// timed for setup_s, and spreading the window over three processes and
// a longer stretch of time makes the pooled figures steadier than one
// process serving the whole window.
type leg struct {
	setup, peakRSS float64
	rss            []float64 // resident set samples, MiB
	res            *driveResult
	wr             *writer // nil unless the workload ingests
	hits, requests int64   // result-cache counters over the leg
	indexBytes     int64
}

// runServed is the end-to-end run: setupRuns legs, then the in-process
// half of the output check over every leg's kept answers.
func runServed(w workload, seed int64, window time.Duration, bin, dir string) (*outcome, error) {
	phases := map[string]float64{}
	mark := time.Now()
	lap := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	fx, err := newFixture(w, seed, defaultSpec, dir)
	if err != nil {
		return nil, err
	}
	lap("fixture")
	t := &tally{}
	var legs []*leg
	next := uint64(0)
	for i := 0; i < setupRuns; i++ {
		l, err := serveLeg(w, fx, bin, filepath.Join(dir, fmt.Sprintf("serve%d", i)), next, window/setupRuns, t)
		if err != nil {
			return nil, err
		}
		legs = append(legs, l)
		next = l.res.next
		lap(fmt.Sprintf("leg%d", i))
	}

	var checks map[string]*core.System
	for _, l := range legs {
		if checks == nil || w.live {
			if checks, err = fx.checkSystems(l.wr); err != nil {
				return nil, err
			}
		}
		checkInProcess(checks, l.res.kept, t)
	}
	lap("check")

	var setups, rss, peaks, p50s []float64
	var lat, puts, dels []time.Duration
	var elapsed time.Duration
	var hits, requests int64
	kept := 0
	for _, l := range legs {
		setups = append(setups, l.setup)
		peaks = append(peaks, l.peakRSS)
		rss = append(rss, l.rss...)
		var own []time.Duration
		for _, s := range l.res.searches {
			own = append(own, s.lat)
		}
		lat = append(lat, own...)
		p50s = append(p50s, durations(own, time.Millisecond).p(50))
		elapsed += l.res.elapsed
		hits += l.hits
		requests += l.requests
		kept += len(l.res.kept)
		if l.wr != nil {
			puts = append(puts, l.wr.putLat...)
			dels = append(dels, l.wr.delLat...)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no search completed inside the window")
	}
	ms := durations(lat, time.Millisecond)
	p95, v95 := ms.tail(95)
	p99, v99 := ms.tail(99)
	out := &outcome{
		metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"search_p50_ms": {ms.p(50), "ms"},
			"search_p95_ms": {v95, "ms"},
			"search_qps":    {float64(len(lat)) / elapsed.Seconds(), "1/s"},
			"rss_mb":        {median(rss), "MB"},
		},
		report: map[string]any{
			"corpus_docs":            fx.base.Len(),
			"vocabulary":             len(fx.stream.tokens),
			"phrases":                len(fx.stream.phrases),
			"corpus_fingerprint":     fmt.Sprintf("%#x", fx.base.Fingerprint()),
			"server_flags":           strings.Join(w.flags, " "),
			"clients":                clients,
			"setup_s_each":           setups,
			"search_p50_ms_each":     p50s,
			"peak_rss_mb_each":       peaks,
			"run_phases_s":           phases,
			"search_samples":         len(lat),
			"search_p95_percentile":  p95,
			"search_p99_ms":          v99,
			"search_p99_percentile":  p99,
			"window_s":               elapsed.Seconds(),
			"checked_answers":        kept,
			"result_cache_hit_ratio": ratio(hits, requests),
		},
		tally: t,
	}
	if w.arena {
		out.report["index_mb"] = float64(legs[0].indexBytes) / (1 << 20)
	}
	if w.live {
		for k, v := range ingestReport(puts, dels) {
			out.report[k] = v
		}
	}
	return out, nil
}

// serveLeg starts xontoserve on a fresh copy of the data in dir, serves
// window seconds of the stream from index first, and runs the
// server-side half of the output check before stopping it.
func serveLeg(w workload, fx *fixture, bin, dir string, first uint64, window time.Duration, t *tally) (*leg, error) {
	if err := copyTree(fx.data.dir, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, took, err := launch(bin, dir, dir+".log", w.flags)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	l := &leg{setup: took.Seconds()}

	prewarm(srv.base, fx.stream, t)
	if w.live {
		l.wr = newWriter(srv.base, fx.data.heldOut, fx.firstDeltaID())
		l.wr.fill(t)
	}
	before, err := scrapeCounters(srv.base)
	if err != nil {
		return nil, err
	}
	stopSampling := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() { sampled <- sampleRSS(srv, stopSampling) }()
	l.res = drive(srv.base, fx.stream, first, window, l.wr, t)
	close(stopSampling)
	l.rss = <-sampled
	after, err := scrapeCounters(srv.base)
	if err != nil {
		return nil, err
	}
	l.hits = after["xontorank_search_cache_hits_total"] - before["xontorank_search_cache_hits_total"]
	l.requests = after["xontorank_search_requests_total"] - before["xontorank_search_requests_total"]
	if l.peakRSS, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if w.live {
		l.res.kept = reissue(srv.base, l.res.kept, t)
	}
	checkPages(srv.base, l.res.kept, t)
	if w.arena {
		if l.indexBytes, err = dirBytes(filepath.Join(dir, "arena")); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// scrapeCounters reads the Prometheus text exposition of /metrics:
// series name (with labels) to value.
func scrapeCounters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = int64(v)
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ingestReport summarizes the writer's acked operations inside the
// window; POSTs and DELETEs both count as ingests.
func ingestReport(puts, dels []time.Duration) map[string]any {
	all := durations(append(append([]time.Duration(nil), puts...), dels...), time.Millisecond)
	p90, v90 := all.tail(90)
	return map[string]any{
		"ingest_samples":        len(all),
		"ingest_p50_ms":         all.p(50),
		"ingest_p90_ms":         v90,
		"ingest_p90_percentile": p90,
		"put_p50_ms":            durations(puts, time.Millisecond).p(50),
		"delete_p50_ms":         durations(dels, time.Millisecond).p(50),
	}
}

// sampleRSS reads the server's resident set every 100 ms until stop.
func sampleRSS(srv *child, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if mb, err := srv.rssMB(); err == nil {
				out = append(out, mb)
			}
		}
	}
}
