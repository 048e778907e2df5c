// Command perfbench is the repository's benchmark. One invocation runs
// one workload against the NWS stack built from the repository's own
// constructors, checks every answer against the generated inputs, and
// prints each metric by name with its unit; the last line of standard
// output is a JSON summary.
//
//	perfbench --workload tcp-query --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics from an untraced run. --trace 1
// splits the time between an untraced and a traced pass of the same
// workload and seed, prints the per-layer metrics from the traced pass
// and the tracing overhead, fails if the simulated (vt_*) results of the
// two passes differ, and writes the traced spans as JSON lines under
// .bench_build/. See README.md for the metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p75_ms", "ms"},
	{"query_per_s", "1/s"},
	{"cpu_us_per_query", "us"},
	{"sim_vs_per_wall_s", "vs/s"},
	{"vt_queries_per_s", "1/vs"},
	{"vt_recovery_s", "vs"},
	{"answered_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics of the traced pass. A layer that
// does not run on a workload reports 0.
var perLayer = []metricDef{
	{"vclock.run_until_ms_per_vs", "ms/vs"},
	{"vclock.pending_events_max", "count"},
	{"vclock.processes_end", "count"},
	{"simnet.settles_per_vs", "1/vs"},
	{"simnet.route_cache_hit_ratio", "ratio"},
	{"proto.codec.encode_ns", "ns"},
	{"proto.codec.decode_ns", "ns"},
	{"proto.codec.bytes_per_msg", "B"},
	{"proto.codec.allocs_per_msg", "count"},
	{"proto.endpoint.send_us.p50", "us"},
	{"proto.endpoint.send_us.p99", "us"},
	{"proto.endpoint.sends", "count"},
	{"proto.station.call_ms.p50", "ms"},
	{"proto.station.call_ms.p99", "ms"},
	{"proto.station.call_self_ms.p50", "ms"},
	{"proto.station.call_errors", "count"},
	{"nameserver.handle_us.p50", "us"},
	{"nameserver.handle_us.p99", "us"},
	{"nameserver.requests_per_batch", "count"},
	{"gateway.handle_ms.p50", "ms"},
	{"gateway.handle_ms.p99", "ms"},
	{"gateway.handle_self_ms.p50", "ms"},
	{"gateway.handle_self_ms.p99", "ms"},
	{"gateway.shed_ratio", "ratio"},
	{"gateway.wait_and_transit_ms.p50", "ms"},
	{"gateway.wait_and_transit_ms.p99", "ms"},
	{"query.backend_calls_per_batch", "count"},
	{"query.dir_calls_per_batch", "count"},
	{"query.backend_call_ms.p50", "ms"},
	{"query.backend_call_ms.p99", "ms"},
	{"query.backend_call_self_ms.p50", "ms"},
	{"memory.fetch_handle_us.p50", "us"},
	{"memory.fetch_handle_us.p99", "us"},
	{"memory.store_handle_us.p50", "us"},
	{"memory.store_handle_us.p99", "us"},
	{"replica.sends_per_store", "count"},
	{"forecast.handle_ms.p50", "ms"},
	{"forecast.handle_ms.p99", "ms"},
	{"forecast.handle_self_ms.p50", "ms"},
	{"forecast.backend_calls_per_batch", "count"},
	{"env.map_s", "vs"},
	{"env.probes", "count"},
	{"deploy.plan_ms", "ms"},
	{"deploy.apply_ms", "ms"},
	{"deploy.apply_delta_ms", "vms"},
	{"reconcile.step_ms", "vms"},
	{"reconcile.rounds_to_converge", "count"},
	{"reconcile.redeploy_fraction", "ratio"},
	{"go.alloc_bytes_per_query", "B"},
	{"go.allocs_per_query", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"bench.gen_late_ms.max", "ms"},
	{"bench.gen_late_ms.p99", "ms"},
	{"bench.query_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.spans", "count"},
}

// pass is one measured run of a workload, traced or not.
type pass struct {
	e2e   map[string]float64 // end-to-end metrics
	layer map[string]float64 // per-layer metrics the workload measured itself
	// vt holds, per distinct sub-seed in run order, the simulated
	// (virtual-time) results that must repeat exactly between passes of
	// the same seed; empty on TCP.
	vt [][]float64
	// cost is wall or CPU per unit of work; traced over untraced is the
	// tracing overhead.
	cost float64
	// layers folds the traced pass's spans (nil when untraced).
	layers *Layers
	// spans of the first traced instance, written out at the end.
	spans *Tracer

	attempted, failed int
	problems          []string // failed output checks
	notes             []string // sample counts and context for humans
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (p *pass) problem(format string, args ...interface{}) {
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) note(format string, args ...interface{}) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// runner measures one pass of a workload for about budget. Simulated
// workloads repeat instances (each a fresh deployment) and run at least
// minInst of them; TCP workloads ignore minInst.
type runner func(seed int64, budget time.Duration, traced bool, minInst int) (*pass, error)

// fullVT asks a simulated workload for every distinct sub-seed its vt_*
// medians are taken over; the passes of a traced run compare only the
// sub-seeds both reached.
const fullVT = -1

// workloads maps a name to its runner.
var workloads = map[string]runner{
	"tcp-query": runTCPQuery,
	"sim-storm": runSimStorm,
	"sim-heal":  runSimHeal,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: tcp-query, sim-storm or sim-heal")
	seed := flag.Int64("seed", 1, "workload seed: series names, owners, sample values and fault victims derive from it")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced pass")
	spansDir := flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", names)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second

	var out *pass
	var defs []metricDef
	var problems []string
	if *trace == 0 {
		p, err := run(*seed, budget, false, fullVT)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		out, defs, problems = p, endToEnd, p.problems
	} else {
		base, err := run(*seed, budget/2, false, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s untraced pass: %v\n", *workload, err)
			os.Exit(1)
		}
		traced, err := run(*seed, budget/2, true, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced pass: %v\n", *workload, err)
			os.Exit(1)
		}
		problems = append(append(problems, base.problems...), traced.problems...)
		for i := 0; i < len(base.vt) && i < len(traced.vt); i++ {
			if !sameFloats(base.vt[i], traced.vt[i]) {
				problems = append(problems, fmt.Sprintf("tracing changed simulated results of instance %d: untraced vt %v, traced vt %v", i, base.vt[i], traced.vt[i]))
			}
		}
		traced.layers.fill(traced.layer)
		traced.layer["bench.trace_overhead_ratio"] = ratio(traced.cost, base.cost)
		// The latency tail is reported from the untraced pass, free of
		// tracing overhead.
		traced.layer["bench.query_p99_ms"] = base.layer["bench.query_p99_ms"]
		if traced.spans != nil {
			// The spans are a by-product for humans: failing to write them
			// is reported but does not fail the run.
			path := filepath.Join(*spansDir, "spans-"+*workload+".jsonl")
			err := os.MkdirAll(*spansDir, 0o755)
			if err == nil {
				err = traced.spans.WriteJSONL(path)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			} else {
				traced.note("spans of the first traced instance written to %s", path)
			}
		}
		out, defs = traced, perLayer
	}

	res := result{Correct: len(problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	src := out.e2e
	if *trace == 1 {
		src = out.layer
	}
	for _, n := range out.notes {
		fmt.Println("# " + n)
	}
	for _, d := range defs {
		v := src[d.name]
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
