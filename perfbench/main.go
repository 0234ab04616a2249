// Command perfbench is the repository's benchmark: it generates seeded
// inputs, runs one named workload through the public engine and HTTP
// paths, checks every output against an independent oracle and prints
// each metric by name with its unit. The last line of standard output is
// a JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload scan-pat --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the run also records spans around its calls into each
// layer, runs the layer ladder, and reports the per-layer metrics instead
// of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0; the list and
// units match BENCHMARK.json's end_to_end section.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_mb_s", "MiB/s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ttfr_p50_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// ladderRungs are the rung names of every layer ladder: scans use
// boundary..encode, the join uses boundary, parse, partition, sweep,
// stream and encode.
var ladderRungs = []string{"boundary", "lex", "machine", "refine", "fold", "execute", "parse", "partition", "sweep", "stream", "encode"}

// layerMetrics are reported by every workload with --trace 1; the list
// and units match BENCHMARK.json's per_layer section. A layer a workload
// does not exercise reports 0.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"lexer.scan_ns_per_mb", "ns/MiB"},
		{"lexer.tokens_per_mb", "1/MiB"},
		{"lexer.speculate_ns_per_mb", "ns/MiB"},
		{"lexer.variants_per_block", "count"},
		{"geojson.boundary_ns_per_mb", "ns/MiB"},
		{"geojson.machine_ns_per_mb", "ns/MiB"},
		{"geojson.fat_block_ns_per_mb", "ns/MiB"},
		{"geojson.features_per_mb", "1/MiB"},
		{"numparse.prefix_ns_per_number", "ns"},
		{"numparse.numbers_per_mb", "1/MiB"},
		{"kernel.refine_ns_per_feature", "ns"},
		{"kernel.pair_ns_per_candidate", "ns"},
		{"query.match_ratio", "ratio"},
		{"wkt.parse_ns_per_mb", "ns/MiB"},
		{"partition.insert_ns_per_feature", "ns"},
		{"partition.entries_per_feature", "count"},
		{"join.partition_ms", "ms"},
		{"join.sweep_ms", "ms"},
		{"join.candidates_per_op", "count"},
		{"join.refined_per_candidate", "ratio"},
		{"join.duplicates_per_pair", "ratio"},
		{"join.cache_hit_ratio", "ratio"},
		{"pipeline.split_ms", "ms"},
		{"pipeline.process_ms", "ms"},
		{"pipeline.merge_ms", "ms"},
		{"pipeline.blocks_per_op", "count"},
		{"pipeline.repaired_blocks_per_op", "count"},
		{"pipeline.reprocessed_blocks_per_op", "count"},
		{"pipeline.sched_locality_hit_ratio", "ratio"},
		{"pipeline.sched_share_interactive", "ratio"},
		{"sidecar.record_s", "s"},
		{"sidecar.hit_ratio", "ratio"},
		{"sidecar.keep_ratio", "ratio"},
		{"sidecar.prune_ns_per_feature", "ns"},
		{"admission.admitted", "count"},
		{"admission.rejected", "count"},
		{"admission.cancelled", "count"},
		{"server.overhead_p50_ms", "ms"},
		{"server.bytes_per_record", "B"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_cycles_per_op", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.slo_miss_rate", "ratio"},
		{"trace.overhead_pct", "%"},
	}
	for _, r := range ladderRungs {
		m = append(m, metricDef{"ladder." + r + "_ms", "ms"}, metricDef{"ladder." + r + "_pct", "%"})
	}
	return append(m,
		metricDef{"ladder.top_ms", "ms"},
		metricDef{"ladder.attributed_ms", "ms"},
		metricDef{"ladder.single_worker_op_ms", "ms"},
	)
}()

// args are the command-line inputs shared by every workload.
type args struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // temporary directory for generated inputs, removed at exit
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	mismatches        int
	e2e               map[string]float64
	layer             map[string]float64
	report            []string // extra human-readable lines
	tr                *tracer  // spans of a traced run
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, a ...any) {
	r.report = append(r.report, fmt.Sprintf(format, a...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(a *args) (*result, error){
	"scan-pat":   runScan,
	"join-dense": runJoin,
}

func main() {
	os.Exit(run())
}

func run() int {
	var a args
	var secs, trace int
	flag.StringVar(&a.workload, "workload", "", "workload name: scan-pat or join-dense")
	flag.Int64Var(&a.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[a.workload]
	if !ok || secs <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0, --trace 0|1\n", names)
		return 2
	}
	a.seconds = time.Duration(secs) * time.Second
	a.trace = trace == 1
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, a.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	a.dir = dir
	defer os.RemoveAll(dir)

	steal0, total0, stealOK := hostSteal()
	res, err := fn(&a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A virtual machine's neighbours can take its CPU; a run that lost
	// much of it to them measured the host, not the program.
	if steal1, total1, ok := hostSteal(); ok && stealOK && total1 > total0 {
		res.note("host CPU steal during the run: %.1f%%", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if res.tr != nil {
		traces := filepath.Join(".bench_build", "traces")
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", a.workload, a.seed))
		if err := os.MkdirAll(traces, 0o755); err == nil {
			err = res.tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.note("spans written to %s", path)
		res.note("span self time, largest first: %s", selfByName(res.tr.snapshot(), 12))
	}
	return emit(&a, res)
}

// emit prints the human report and the final JSON line, returning the
// exit code: non-zero when any output disagreed with the oracle.
func emit(a *args, res *result) int {
	defs, vals := e2eMetrics, res.e2e
	if a.trace {
		defs, vals = layerMetrics, res.layer
	}
	fmt.Printf("workload %s  seed %d  seconds %.0f  trace %v  workers %d\n",
		a.workload, a.seed, a.seconds.Seconds(), a.trace, runtime.GOMAXPROCS(0))
	for _, l := range res.report {
		fmt.Println("  " + l)
	}
	if res.attempted > 0 {
		fmt.Printf("  error_rate %.4f (%d failed of %d attempted, %d oracle mismatches)\n",
			float64(res.failed)/float64(res.attempted), res.failed, res.attempted, res.mismatches)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.mismatches == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !a.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", a.workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if res.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d outputs disagreed with the oracle\n", res.mismatches)
		return 1
	}
	if res.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		return 1
	}
	return 0
}
