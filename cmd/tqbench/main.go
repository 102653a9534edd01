// Command tqbench runs the repository's pinned benchmark matrix
// (internal/bench) and writes the results as one JSON report. Each PR
// checks in a full report as BENCH_<pr>.json; CI runs the quick matrix
// as a smoke test and validates the report's invariants (schema,
// complete matrix, zero-allocation arrival path, machine and fleet
// runs).
//
// Usage:
//
//	tqbench -pr 6 -o BENCH_6.json        # full matrix, attributed
//	tqbench -quick -o bench-quick.json   # CI smoke run
//	tqbench -check bench-quick.json      # validate an existing report
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced smoke matrix (seconds, not minutes)")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	pr := flag.Int("pr", 0, "pull-request number to stamp into the report")
	check := flag.String("check", "", "validate an existing report file and exit")
	flag.Parse()

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		r, err := bench.Decode(data)
		if err != nil {
			fatal(err)
		}
		if err := bench.Validate(r); err != nil {
			fatal(fmt.Errorf("%s: %w", *check, err))
		}
		fmt.Printf("%s: ok (%d benches, engine speedup %.2fx, pump %.4f allocs/op)\n",
			*check, len(r.Benches), r.Speedup(), pumpAllocs(r))
		return
	}

	r := bench.Run(bench.Options{
		Quick:    *quick,
		PR:       *pr,
		Progress: func(line string) { fmt.Fprintln(os.Stderr, line) },
	})
	if err := bench.Validate(r); err != nil {
		fatal(fmt.Errorf("fresh report failed validation: %w", err))
	}
	data, err := r.Encode()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (engine speedup %.2fx over heap baseline)\n", *out, r.Speedup())
}

func pumpAllocs(r *bench.Report) float64 {
	for _, b := range r.Benches {
		if b.Name == "kernel/arrival-pump" {
			return b.AllocsPerOp
		}
	}
	return -1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tqbench:", err)
	os.Exit(1)
}
