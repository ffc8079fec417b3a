package query

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestWriteMergeBenchReport regenerates BENCH_MERGE.json, the recorded
// evidence for the fast-merge acceptance criteria (>= 2x on skewed
// conjunctions, ~0 allocs/op steady state). Gated so normal test runs
// stay fast:
//
//	BENCH_MERGE=1 go test -run TestWriteMergeBenchReport ./internal/query
//
// or `make bench-merge-report`. The report lands at the repository
// root, next to the other BENCH files.
func TestWriteMergeBenchReport(t *testing.T) {
	if os.Getenv("BENCH_MERGE") == "" {
		t.Skip("set BENCH_MERGE=1 to regenerate BENCH_MERGE.json")
	}

	type row struct {
		Keywords    int     `json:"keywords"`
		Shape       string  `json:"shape"`
		NsLegacy    int64   `json:"ns_per_op_legacy"`
		NsFast      int64   `json:"ns_per_op_fast"`
		NsCompact   int64   `json:"ns_per_op_compact"`
		SpeedupFast float64 `json:"speedup_fast_vs_legacy"`
		SpeedupComp float64 `json:"speedup_compact_vs_legacy"`
	}
	type allocRow struct {
		Impl        string `json:"impl"`
		AllocsPerOp int64  `json:"allocs_per_op"`
		BytesPerOp  int64  `json:"bytes_per_op"`
	}
	report := struct {
		Description   string     `json:"description"`
		CPU           string     `json:"cpu"`
		GoVersion     string     `json:"go_version"`
		Merge         []row      `json:"merge"`
		SteadyStateAl []allocRow `json:"steady_state_allocs_disjoint_docs"`
	}{
		Description: "DIL merge: reference sort-merge (legacy) vs loser-tree " +
			"zig-zag merge over plain (fast) and block-compressed (compact) lists; " +
			"regenerate with `make bench-merge-report`",
		CPU:       runtime.GOARCH,
		GoVersion: runtime.Version(),
	}

	bench := func(merge func() []Result, want int) int64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(merge()) != want {
					b.Fatal("result count changed")
				}
			}
		})
		return r.NsPerOp()
	}

	for _, k := range []int{2, 3, 5} {
		for _, shape := range []string{"skewed", "uniform"} {
			lists := mergeWorkload(k, shape == "skewed")
			cls := compactAll(lists)
			want := len(runDIL(lists, 0.5))
			r := row{Keywords: k, Shape: shape}
			r.NsLegacy = bench(func() []Result { return runDIL(lists, 0.5) }, want)
			r.NsFast = bench(func() []Result { return RunLists(lists, 0.5, 0) }, want)
			r.NsCompact = bench(func() []Result { return RunCompactLists(cls, 0.5, 0) }, want)
			r.SpeedupFast = round2(float64(r.NsLegacy) / float64(r.NsFast))
			r.SpeedupComp = round2(float64(r.NsLegacy) / float64(r.NsCompact))
			report.Merge = append(report.Merge, r)
			if shape == "skewed" && r.SpeedupFast < 2 {
				t.Errorf("keywords=%d skewed: fast speedup %.2fx < 2x acceptance bar", k, r.SpeedupFast)
			}
		}
	}

	mk := func(merge func() int) allocRow {
		var ar allocRow
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if merge() != 0 {
					b.Fatal("unexpected results")
				}
			}
		})
		ar.AllocsPerOp = r.AllocsPerOp()
		ar.BytesPerOp = r.AllocedBytesPerOp()
		return ar
	}
	lists := disjointWorkload()
	cls := compactAll(lists)
	for _, c := range []struct {
		impl  string
		merge func() int
	}{
		{"fast", func() int { return len(RunLists(lists, 0.5, 0)) }},
		{"compact", func() int { return len(RunCompactLists(cls, 0.5, 0)) }},
		{"legacy", func() int { return len(runDIL(lists, 0.5)) }},
	} {
		ar := mk(c.merge)
		ar.Impl = c.impl
		report.SteadyStateAl = append(report.SteadyStateAl, ar)
		if c.impl != "legacy" && ar.AllocsPerOp > 1 {
			t.Errorf("%s steady-state allocs/op = %d, want ~0", c.impl, ar.AllocsPerOp)
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "..", "BENCH_MERGE.json"), append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_MERGE.json (%d merge rows)", len(report.Merge))
}

func round2(f float64) float64 { return float64(int64(f*100)) / 100 }
