// Command perfbench is the repository benchmark: it drives the
// simulator from outside, through its public entry points, as users
// run it — an offline batch of simulated load sweeps — and reports
// simulated requests resolved per CPU second (scaled to a nominal host
// speed), allocation and memory cost, set-up time, and (with --trace 1)
// a layer-attributed breakdown of one workload. See README.md for the
// workloads and metrics.
//
//	bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --report --seconds 6
//	bash perfbench/run.sh --record perfbench/testdata/reference.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"allocs_per_req", "count"},
	{"alloc_bytes_per_req", "B"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_req", "count"},
		{"sim.ns_per_event", "ns"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "share"})
	}
	defs = append(defs,
		metricDef{"cpu.samples", "count"},
		metricDef{"gc.cycles_per_mreq", "count"},
		metricDef{"gc.cpu_share", "share"},
		metricDef{"workload.next_ns", "ns"},
		metricDef{"cluster.drop_ratio", "share"},
		metricDef{"rack.placed_max_over_mean", "ratio"},
		metricDef{"stats.query_ms", "ms"},
	)
	for k := 0; k < obs.KindCount; k++ {
		defs = append(defs, metricDef{"obs." + obs.Kind(k).String() + "_per_req", "count"})
	}
	return append(defs,
		metricDef{"obs.emit_ns_per_event", "ns"},
		metricDef{"obs.trace_overhead", "ratio"},
		metricDef{"obs.validate_ms", "ms"},
		metricDef{"obs.truncated_events", "count"},
		metricDef{"sweep.parallel_eff", "share"},
		metricDef{"sweep.point_s_p50", "s"},
		metricDef{"sweep.req_per_wall_s", "1/s"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the JSON object printed as the last line of output.
type benchResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// allocsPerReq is the traced run's untraced allocation rate, which
	// the layer report compares across workloads.
	allocsPerReq float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 0, "workload seed; simulation seed is seed mod 32")
	seconds := fs.Float64("seconds", 10, "host seconds the timed passes run for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled and a recorded pass")
	report := fs.Bool("report", false, "run every workload traced and print the cpu.* layer table side by side")
	record := fs.String("record", "", "record reference digests of every workload and seed into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	ref, err := loadReference()
	if *record != "" {
		if err := recordReference(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, scale: 1, ref: ref, log: stderr}
	if *report {
		if err := layerReport(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	o.traced = *trace == 1
	res, errs, err := measure(def, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(stderr, "... %d more failed operations\n", len(errs)-i)
			break
		}
		fmt.Fprintln(stderr, "FAIL", e)
	}
	printSummary(stderr, def.name, res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}

func printSummary(w io.Writer, name string, res benchResult) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// recordReference runs one pass of every workload at every simulation
// seed and writes the digests of its operations.
func recordReference(path string, stderr io.Writer) error {
	ref := reference{Seeds: refSeeds, Workloads: map[string][][]string{}}
	for _, def := range workloads {
		sweeps := def.sweeps(1)
		per := make([][]string, refSeeds)
		for s := range per {
			p := passRunner{sweeps: sweeps, seed: uint64(s)}.run(nil)
			for _, op := range p.ops {
				if op.err != nil {
					return fmt.Errorf("record %s seed %d: %w", def.name, s, op.err)
				}
				per[s] = append(per[s], op.digest)
			}
		}
		ref.Workloads[def.name] = per
		fmt.Fprintf(stderr, "recorded %s: %d seeds\n", def.name, refSeeds)
	}
	if err := writeReference(path, ref); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
