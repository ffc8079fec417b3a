package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// searchAnswer is the part of a /search body the benchmark reads.
type searchAnswer struct {
	V        int          `json:"v"`
	K        int          `json:"k"`
	Offset   int          `json:"offset"`
	Results  []resultItem `json:"results"`
	Degraded bool         `json:"degraded"`
	Timing   struct {
		HandlerUS int64 `json:"handler_us"`
	} `json:"timing"`
}

// resultItem is one ranked answer: the triple the output check
// compares.
type resultItem struct {
	ID       string  `json:"id"`
	Score    float64 `json:"score"`
	Document string  `json:"document"`
}

// shapeErr checks what every answer must satisfy on its own: wire
// version 1, the requested window echoed, at most k results, scores
// non-increasing, and no degraded (IR-only or partial) ranking.
func shapeErr(req request, a *searchAnswer) error {
	switch {
	case a.V != 1:
		return fmt.Errorf("v = %d, want 1", a.V)
	case a.K != req.K || a.Offset != req.Offset:
		return fmt.Errorf("window echoed as k=%d offset=%d, asked k=%d offset=%d", a.K, a.Offset, req.K, req.Offset)
	case len(a.Results) > req.K:
		return fmt.Errorf("%d results for k=%d", len(a.Results), req.K)
	case a.Degraded:
		return fmt.Errorf("degraded answer")
	}
	for i := 1; i < len(a.Results); i++ {
		if a.Results[i].Score > a.Results[i-1].Score {
			return fmt.Errorf("score rises at rank %d: %v after %v", i, a.Results[i].Score, a.Results[i-1].Score)
		}
	}
	return nil
}

// tally counts attempted and failed operations and keeps the first
// few failure messages.
type tally struct {
	attempted, failed int64
	msgs              []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.msgs) < 8 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// search issues one /search request and decodes the answer.
func search(c *http.Client, base string, req request) (*searchAnswer, error) {
	resp, err := c.Get(base + req.path())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var a searchAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &a, nil
}

// searchSample is one measured search.
type searchSample struct {
	lat       time.Duration
	handlerUS int64
}

// keptAnswer is an answer retained for the in-process check.
type keptAnswer struct {
	req    request
	answer *searchAnswer
}

// driveResult is what one closed-loop phase measured.
type driveResult struct {
	searches []searchSample // started inside the window
	elapsed  time.Duration  // window start to the last measured completion
	kept     []keptAnswer   // keepMax answers spread over the run, from every keepEvery-th stream index
	next     uint64         // first stream index not issued
}

// drive runs one closed-loop client over the stream, from index first,
// against the server at base: it sends its next request only when the
// previous answer is in. Requests issued during the warm-up are checked
// but not measured. With a writer (nil for read-only workloads), the
// same loop performs one write step before every writeEvery-th search,
// so reads and writes never compete for the two cores of the reference
// box and every run interleaves them the same way.
func drive(base string, s *stream, first uint64, window time.Duration, wr *writer, t *tally) *driveResult {
	client := newClient(1)
	defer client.CloseIdleConnections()
	from := time.Now().Add(warmup)
	end := from.Add(window)
	res := &driveResult{}
	var lastDone time.Time
	i := first
	for ; ; i++ {
		if wr != nil && i%writeEvery == 0 && time.Now().Before(end) {
			wr.step(!time.Now().Before(from), t)
		}
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		req := s.at(i)
		a, err := search(client, base, req)
		lat := time.Since(t0)
		if err == nil {
			err = shapeErr(req, a)
		}
		if err != nil {
			t.fail("search %s: %v", req.path(), err)
			continue
		}
		t.ok()
		if i%keepEvery == 0 {
			res.kept = append(res.kept, keptAnswer{req: req, answer: a})
		}
		if !t0.Before(from) {
			res.searches = append(res.searches, searchSample{lat: lat, handlerUS: a.Timing.HandlerUS})
			lastDone = t0.Add(lat)
		}
	}
	res.elapsed = lastDone.Sub(from)
	res.next = i
	if n := len(res.kept); n > keepMax {
		spread := make([]keptAnswer, keepMax)
		for j := range spread {
			spread[j] = res.kept[j*n/keepMax]
		}
		res.kept = spread
	}
	return res
}

// writeEvery is the number of searches per write step.
const writeEvery = 10

// writer is the single ingest client. Its steps alternate: POST the
// next held-out record under its own name, then DELETE the oldest
// ingested one — so the delta holds keepLive or keepLive+1 documents
// and the run stays stationary. One writer only: concurrent admin
// mutations are answered 409.
type writer struct {
	base   string
	client *http.Client
	held   []heldDoc

	cursor int       // next held-out record to post
	nextID int32     // document ID the server assigns to the next POST
	live   []liveDoc // ingested and not deleted, oldest first

	putLat, delLat []time.Duration // ops started inside the window
}

// liveDoc is an ingested record and the ID the server gave it.
type liveDoc struct {
	held int
	id   int32
}

func newWriter(base string, held []heldDoc, firstID int32) *writer {
	return &writer{base: base, client: newClient(2), held: held, nextID: firstID}
}

// fill posts keepLive records so the delta starts at its steady size.
func (w *writer) fill(t *tally) {
	for len(w.live) < keepLive {
		w.put(false, t)
	}
}

// step performs the next operation of the alternation.
func (w *writer) step(measured bool, t *tally) {
	if len(w.live) > keepLive {
		w.del(measured, t)
	} else {
		w.put(measured, t)
	}
}

func (w *writer) put(measured bool, t *tally) {
	h := w.cursor % len(w.held)
	w.cursor++
	d := w.held[h]
	t0 := time.Now()
	err := w.do(http.MethodPost, d.name, d.body)
	if err != nil {
		t.fail("ingest POST %s: %v", d.name, err)
		return
	}
	t.ok()
	if measured {
		w.putLat = append(w.putLat, time.Since(t0))
	}
	w.live = append(w.live, liveDoc{held: h, id: w.nextID})
	w.nextID++
}

func (w *writer) del(measured bool, t *tally) {
	d := w.live[0]
	name := w.held[d.held].name
	t0 := time.Now()
	if err := w.do(http.MethodDelete, name, nil); err != nil {
		t.fail("ingest DELETE %s: %v", name, err)
		return
	}
	t.ok()
	if measured {
		w.delLat = append(w.delLat, time.Since(t0))
	}
	w.live = w.live[1:]
}

func (w *writer) do(method, name string, body []byte) error {
	req, err := http.NewRequest(method, w.base+"/admin/ingest?name="+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, msg)
	}
	return nil
}
