package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// Output checks. Every answer is shape-checked as it arrives
// (shapeErr). A sample of answers — keepMax per server, spread over
// its share of the window, drawn from every keepEvery-th stream index
// — is also re-answered in process by core.System.Query over the same
// corpus and must match in (document, Dewey ID, score) exactly, rank
// by rank; each paged answer in the sample must equal the matching
// window of one deeper query. Every mismatch counts as a failed
// operation.

// checkInProcess re-answers each kept request with the in-process
// system of its strategy and compares rank by rank.
func checkInProcess(systems map[string]*core.System, kept []keptAnswer, t *tally) {
	for _, k := range kept {
		resp, err := systems[k.req.Strategy].Query(context.Background(), core.SearchRequest{Query: k.req.Query, K: k.req.K, Offset: k.req.Offset})
		if err != nil {
			t.fail("in-process %s: %v", k.req.path(), err)
			continue
		}
		if err := sameResults(k.answer.Results, resp.Results); err != nil {
			t.fail("server and in-process answers differ for %s: %v", k.req.path(), err)
			continue
		}
		t.ok()
	}
}

// checkPages compares each kept paged answer with the matching window
// of one deeper query to the server at base.
func checkPages(base string, kept []keptAnswer, t *tally) {
	client := newClient(2)
	defer client.CloseIdleConnections()
	for _, k := range kept {
		if k.req.Offset == 0 {
			continue
		}
		deep := k.req
		deep.K, deep.Offset = k.req.K+k.req.Offset, 0
		a, err := search(client, base, deep)
		if err != nil {
			t.fail("deep query %s: %v", deep.path(), err)
			continue
		}
		if err := samePage(k.answer.Results, a.Results, k.req.Offset); err != nil {
			t.fail("page %s is not the window of %s: %v", k.req.path(), deep.path(), err)
			continue
		}
		t.ok()
	}
}

// reissue asks the kept requests again and returns the fresh answers
// (the ingest workload checks the final state, not the moving one).
func reissue(base string, kept []keptAnswer, t *tally) []keptAnswer {
	client := newClient(2)
	defer client.CloseIdleConnections()
	var out []keptAnswer
	for _, k := range kept {
		a, err := search(client, base, k.req)
		if err == nil {
			err = shapeErr(k.req, a)
		}
		if err != nil {
			t.fail("re-issued search %s: %v", k.req.path(), err)
			continue
		}
		t.ok()
		out = append(out, keptAnswer{req: k.req, answer: a})
	}
	return out
}

func sameResults(got []resultItem, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, in-process %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Document != w.Document || g.ID != w.Root.String() || g.Score != w.Score {
			return fmt.Errorf("rank %d: (%s, %s, %v), in-process (%s, %s, %v)",
				i, g.Document, g.ID, g.Score, w.Document, w.Root, w.Score)
		}
	}
	return nil
}

func samePage(page, deep []resultItem, offset int) error {
	var window []resultItem
	if offset < len(deep) {
		window = deep[offset:]
	}
	if len(window) != len(page) {
		return fmt.Errorf("page has %d results, window %d", len(page), len(window))
	}
	for i := range page {
		if page[i] != window[i] {
			return fmt.Errorf("rank %d: %+v vs %+v", offset+i, page[i], window[i])
		}
	}
	return nil
}

// finalCorpus is the corpus a full rebuild would serve after the
// writer's run: every base document (the writer never deletes one)
// plus each live ingested record under the ID the server assigned it.
func finalCorpus(base *xmltree.Corpus, w *writer) (*xmltree.Corpus, error) {
	out := xmltree.NewCorpus()
	for _, d := range base.Docs() {
		out.AddExisting(d)
	}
	live := append([]liveDoc(nil), w.live...)
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, l := range live {
		h := w.held[l.held]
		doc, err := xmltree.Parse(bytes.NewReader(h.body))
		if err != nil {
			return nil, fmt.Errorf("parsing held-out %s: %w", h.name, err)
		}
		doc.Name = h.name
		doc.ID = l.id
		doc.AssignDewey()
		out.AddExisting(doc)
	}
	return out, nil
}
