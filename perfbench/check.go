package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/cluster"
)

// refSeeds is how many workload seeds the reference table covers. The
// benchmark's --seed n selects simulation seed n mod refSeeds, so every
// seed it is given has a recorded reference digest.
const refSeeds = 32

//go:embed testdata/reference.json
var referenceJSON []byte

// reference maps workload name to, per simulation seed, the digest of
// every operation of a pass in pass order.
type reference struct {
	Seeds     int                   `json:"seeds"`
	Workloads map[string][][]string `json:"workloads"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("decode reference digests: %w", err)
	}
	if ref.Seeds != refSeeds {
		return ref, fmt.Errorf("reference digests cover %d seeds, want %d", ref.Seeds, refSeeds)
	}
	return ref, nil
}

// digests returns the reference digests of one workload and simulation
// seed, or an error when none were recorded.
func (r reference) digests(name string, seed uint64) ([]string, error) {
	per := r.Workloads[name]
	if int(seed) >= len(per) {
		return nil, fmt.Errorf("no reference digests for workload %s seed %d", name, seed)
	}
	return per[seed], nil
}

func writeReference(path string, ref reference) error {
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digest fingerprints the simulated statistics of one Result: counts
// plus p50/p99/p99.9 sojourn per class and per tenant. It leaves out
// Result.Events, so a change that simulates the same schedule with
// fewer engine events keeps its digests.
func digest(res *cluster.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s rate=%g offered=%d completed=%d dropped=%d\n",
		res.System, res.Config.Rate, res.Offered, res.Completed, res.Dropped)
	for _, c := range res.PerClass {
		fmt.Fprintf(h, "class %s n=%d good=%d p50=%g p99=%g p999=%g\n",
			c.Name, c.Count, c.Good, c.Sojourn.Quantile(0.5), c.Sojourn.P99(), c.Sojourn.P999())
	}
	for _, t := range res.PerTenant {
		fmt.Fprintf(h, "tenant %s offered=%d completed=%d dropped=%d good=%d p50=%g p99=%g p999=%g\n",
			t.Name, t.Offered, t.Completed, t.Dropped, t.Good, t.Sojourn.Quantile(0.5), t.Sojourn.P99(), t.Sojourn.P999())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// conserved checks the request-count laws of one Result:
// Offered == Completed + Dropped overall and per tenant, per-class
// completions summing to Completed, and per-tenant counts summing to
// the aggregate.
func conserved(res *cluster.Result) error {
	if res.Offered == 0 {
		return fmt.Errorf("no requests resolved")
	}
	if res.Offered != res.Completed+res.Dropped {
		return fmt.Errorf("offered %d != completed %d + dropped %d", res.Offered, res.Completed, res.Dropped)
	}
	var classDone uint64
	for _, c := range res.PerClass {
		classDone += c.Count
	}
	if classDone != res.Completed {
		return fmt.Errorf("per-class completions sum to %d, want %d", classDone, res.Completed)
	}
	if len(res.PerTenant) == 0 {
		return nil
	}
	var off, done, drop uint64
	for _, t := range res.PerTenant {
		if t.Offered != t.Completed+t.Dropped {
			return fmt.Errorf("tenant %s: offered %d != completed %d + dropped %d", t.Name, t.Offered, t.Completed, t.Dropped)
		}
		off += t.Offered
		done += t.Completed
		drop += t.Dropped
	}
	if off != res.Offered || done != res.Completed || drop != res.Dropped {
		return fmt.Errorf("tenants sum to offered %d completed %d dropped %d, want %d %d %d",
			off, done, drop, res.Offered, res.Completed, res.Dropped)
	}
	return nil
}

// checkResult is the per-operation correctness check: the conservation
// laws, then the digest against the reference (want "" skips the
// reference, as when recording one). It returns the Result's digest.
func checkResult(res *cluster.Result, want string) (string, error) {
	if err := conserved(res); err != nil {
		return "", fmt.Errorf("conservation: %w", err)
	}
	got := digest(res)
	if want != "" && got != want {
		return got, fmt.Errorf("digest %s differs from reference %s", got, want)
	}
	return got, nil
}
