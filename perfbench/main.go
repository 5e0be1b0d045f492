// Command perfbench is the end-to-end benchmark of freqd, the network
// service over the weighted frequent-items summary.
//
// It starts freqd as separate processes, drives them from this one
// generator process over at most two client connections, checks every
// answer it can against an exact oracle, and prints each metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with -trace 1 they are the per-layer ones. A traced run
// measures its first half untraced and its second half traced: every op
// of the traced half gets a wire span, and its inputs are replayed
// in-process through freq, internal/sharded, internal/core, freq/store
// and freq/tenant with the daemon's geometry, each call wrapped in a span
// whose parent is the op's wire span. The spans are written to
// .bench_build/perfbench/ when the run ends.
//
// Timings are plain quantiles over the measured ops, except that ops
// overlapping a half-second slot in which the hypervisor took more than
// 2% of the machine's CPU time for other guests are left out (see
// stealSlot). A closed loop's rate counts every op, over the measured
// time less the time the hypervisor stole (see itemsPerSecond).
//
// Run it from the repository root through the wrapper, which builds
// freqd and this program first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
//
// The process exits 1 without a result line when the run cannot be
// carried out, and 1 after the result line when an oracle check failed
// or the generator fell behind its schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit. The names and units
// must match BENCHMARK.json (bench_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of freqd sees, reported on every
// workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_items_per_s", "1/s"},
	{"ingest_frame_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"daemon_rss_mb", "MB"},
	{"max_error_ratio", "ratio"},
}

// perLayer lists the per-layer metrics reported with -trace 1. A metric
// whose layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.ingest_frame_p90_ms", "ms"},
	{"loadgen.ingest_frame_p99_ms", "ms"},
	{"loadgen.query_p90_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"loadgen.failed_ops_ratio", "ratio"},
	{"freqd.cpu_us_per_item", "us"},
	{"freqd.cpu_util", "cores"},
	{"freqd.peak_rss_mb", "MB"},
	{"server.pairs_rtt_p50_us", "us"},
	{"server.pairs_rtt_p99_us", "us"},
	{"server.bytes_per_item", "B"},
	{"server.writes_per_frame", "count"},
	{"server.topk_rtt_p50_us", "us"},
	{"server.fi_rtt_p50_us", "us"},
	{"server.est_rtt_p50_us", "us"},
	{"server.reply_bytes_per_topk", "B"},
	{"server.retries", "count"},
	{"server.transport_errors", "count"},
	{"server.err_replies", "count"},
	{"server.torn_est_replies", "count"},
	{"cluster.snap_bytes_per_node", "B"},
	{"cluster.slowest_node_p50_ms", "ms"},
	{"cluster.degraded_refreshes", "count"},
	{"freq.writer_ns_per_item", "ns"},
	{"freq.view_build_p50_us", "us"},
	{"freq.view_merges_per_read", "ratio"},
	{"freq.topk_p50_us", "us"},
	{"freq.topk_allocs", "count"},
	{"freq.topk_bytes", "B"},
	{"sharded.partition_skew", "ratio"},
	{"core.update_pairs_ns_per_item", "ns"},
	{"core.decrements_per_mitem", "count"},
	{"core.serialize_p50_us", "us"},
	{"core.deserialize_p50_us", "us"},
	{"core.merge_p50_us", "us"},
	{"windowed.rotate_rtt_p50_us", "us"},
	{"windowed.win_topk_rtt_p50_us", "us"},
	{"windowed.view_merge_p50_us", "us"},
	{"store.append_p50_us", "us"},
	{"store.range_rtt_p50_us", "us"},
	{"store.query_into_p50_us", "us"},
	{"store.bytes_per_block", "B"},
	{"tenant.evictions_per_s", "1/s"},
	{"tenant.pool_hit_ratio", "ratio"},
	{"tenant.topk_rtt_p50_us", "us"},
	{"tenant.range_rtt_p50_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// metricDefs returns the metrics a run reports: per-layer when traced,
// end-to-end otherwise.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"ingest":  runIngest,
	"query":   runQuery,
	"fleet":   runFleet,
	"history": runHistory,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	root     string // repository checkout
	freqd    string // freqd binary
	outDir   string // spans and daemon state go here
	setups   int    // set-ups per run; setup_s is their median
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: ingest, query, fleet or history")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository checkout holding .bench_build/")
		freqd    = flag.String("freqd", "", "freqd binary (default <root>/.bench_build/bin/freqd)")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown -workload %q (want ingest, query, fleet or history)", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     *root,
		freqd:    *freqd,
		outDir:   filepath.Join(*root, ".bench_build", "perfbench"),
		setups:   15,
	}
	if cfg.freqd == "" {
		cfg.freqd = filepath.Join(*root, ".bench_build", "bin", "freqd")
	}
	// The generator shares the machine with freqd; one thread of its own
	// leaves freqd the rest and keeps run-to-run scheduling noise down.
	runtime.GOMAXPROCS(1)
	res, r, err := execute(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := report(os.Stdout, cfg, r, res); err != nil {
		fatalf("%v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result.
func execute(cfg config) (result, *run, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	r, err := newRun(cfg)
	if err != nil {
		return result{}, nil, err
	}
	defer r.close()
	if err := workloads[cfg.workload](r); err != nil {
		return result{}, nil, fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	res := result{
		Correct:   r.oracle.violations == 0 && r.badReplies == 0 && r.valid(),
		Attempted: r.opsAttempted + r.oracle.checks,
		Failed:    r.opsFailed + r.oracle.violations,
		Metrics:   map[string]metric{},
	}
	r.metrics["loadgen.failed_ops_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	for _, d := range metricDefs(cfg.trace) {
		res.Metrics[d.name] = metric{Value: r.metrics[d.name], Unit: d.unit}
	}
	if cfg.trace {
		if err := r.tr.write(filepath.Join(cfg.outDir,
			fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return result{}, nil, err
		}
	}
	return res, r, nil
}

// report prints the human-readable table, the provenance line and the
// contract's JSON result line (last).
func report(w io.Writer, cfg config, r *run, res result) error {
	fmt.Fprintf(w, "workload %s  seed %d  %s  trace=%v\n", cfg.workload, cfg.seed, cfg.duration, cfg.trace)
	for _, d := range metricDefs(cfg.trace) {
		fmt.Fprintf(w, "  %-32s %16.6g %-6s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, line := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", line)
	}
	for _, line := range r.oracle.notes {
		fmt.Fprintf(w, "  oracle: %s\n", line)
	}
	if cfg.trace {
		for _, line := range r.tr.selfTimes() {
			fmt.Fprintf(w, "  span %s\n", line)
		}
	}
	fmt.Fprintf(w, "  oracle checks %d, violations %d; ops %d, failed %d (ratio %.6g)\n",
		r.oracle.checks, r.oracle.violations, r.opsAttempted, r.opsFailed, r.metrics["loadgen.failed_ops_ratio"])
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
