package main

import "time"

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// flags are the xontoserve flags beyond -data and -addr.
	flags  []string
	arena  bool // -mmap-index: postings prebuilt into mapped arenas
	live   bool // -live-ingest: a writer posts and deletes records
	stream streamConfig
}

// servingFlags pins the serving layer to xontoserve's defaults, spelled
// out so a change of defaults does not silently change the benchmark.
var servingFlags = []string{
	"-cache-size", "1024", "-cache-ttl", "60s",
	"-max-concurrent", "32", "-queue-wait", "100ms", "-timeout", "10s",
}

// noCompaction turns the background compactor off: a compaction is a
// full rebuild of all four arenas, seconds long at this corpus size,
// and would land at a random point of the window.
var noCompaction = []string{"-compact-interval", "0", "-compact-max-docs", "0", "-compact-max-tombstones", "0"}

// prebuiltStream draws indexed tokens Zipf-skewed, plus a small pool of
// quoted concept phrases that a pre-warm pass builds once, so in the
// window every keyword is either prebuilt or in the keyword cache.
// Strategies lean to the default, Relationships.
var prebuiltStream = streamConfig{
	MaxKeywords: 3, PhraseShare: 0.05, PhrasePool: 32,
	ZipfS: 1.1, ZipfV: 20,
	StrategyWeights: [4]float64{0.15, 0.15, 0.15, 0.55},
}

// ondemandStream is mostly quoted concept phrases drawn uniformly from
// every multi-token run of every ontology term (~10,000 phrases per
// strategy against a 4,096-entry keyword cache per strategy), so
// first-seen keywords keep arriving through the window; strategies are
// uniform.
var ondemandStream = streamConfig{
	MaxKeywords: 2, PhraseShare: 0.8,
	ZipfS: 1.1, ZipfV: 20,
	StrategyWeights: [4]float64{0.25, 0.25, 0.25, 0.25},
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var workloads = map[string]workload{
	"search_prebuilt": {
		name:   "search_prebuilt",
		flags:  concat(servingFlags, []string{"-mmap-index"}),
		arena:  true,
		stream: prebuiltStream,
	},
	"search_ondemand": {
		name:   "search_ondemand",
		flags:  servingFlags,
		stream: ondemandStream,
	},
	"ingest_mix": {
		name:   "ingest_mix",
		flags:  concat(servingFlags, []string{"-mmap-index", "-live-ingest"}, noCompaction),
		arena:  true,
		live:   true,
		stream: prebuiltStream,
	},
}

// Run shape, the same for every workload.
const (
	clients   = 1  // closed-loop search clients: drive runs one, so the server has a core to spare on the 2-core reference box
	setupRuns = 3  // server starts per run, each serving a third of the window; setup_s is their median
	keepLive  = 16 // ingested records the writer keeps live in the delta
	keepEvery = 16 // answers to every 16th stream index are kept ...
	keepMax   = 96 // ... and this many, spread over the run, re-answered in process
)

// warmup is the closed-loop warm-up before each server's share of the
// window.
const warmup = time.Second
