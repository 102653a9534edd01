package bench

import "testing"

// goodReport builds a minimal structurally valid report covering the
// whole matrix.
func goodReport() *Report {
	r := &Report{Schema: Schema, GoVersion: "go0.0", Gomaxprocs: 1}
	for _, b := range matrix {
		r.Benches = append(r.Benches, Result{
			Name: b.name, N: 1000, WallNs: 1000_000, NsPerOp: 1000,
			EventsPerSec: 1e6, AllocsPerOp: 0.1, AllocsInt: 0,
		})
	}
	return r
}

func TestValidateAcceptsGoodReport(t *testing.T) {
	if err := Validate(goodReport()); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "tqbench/v0" }},
		{"missing bench", func(r *Report) { r.Benches = r.Benches[:len(r.Benches)-1] }},
		{"out of order", func(r *Report) { r.Benches[0], r.Benches[1] = r.Benches[1], r.Benches[0] }},
		{"zero n", func(r *Report) { r.Benches[0].N = 0 }},
		{"negative allocs", func(r *Report) { r.Benches[0].AllocsPerOp = -1 }},
	}
	for _, name := range zeroAllocBenches {
		cases = append(cases, struct {
			name   string
			break_ func(*Report)
		}{name + " allocates", func(r *Report) {
			for i := range r.Benches {
				if r.Benches[i].Name == name {
					r.Benches[i].AllocsInt = 1
				}
			}
		}})
	}
	for _, c := range cases {
		r := goodReport()
		c.break_(r)
		if err := Validate(r); err == nil {
			t.Errorf("%s: report accepted, want error", c.name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := goodReport()
	r.PR = 6
	r.Quick = true
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.PR != 6 || !back.Quick || back.Schema != Schema || len(back.Benches) != len(r.Benches) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Benches[0] != r.Benches[0] {
		t.Fatalf("round trip changed bench 0: %+v vs %+v", back.Benches[0], r.Benches[0])
	}
}

func TestSpeedup(t *testing.T) {
	r := goodReport()
	for i := range r.Benches {
		switch r.Benches[i].Name {
		case "engine/wheel-churn":
			r.Benches[i].EventsPerSec = 3e6
		case "engine/heap-churn":
			r.Benches[i].EventsPerSec = 1e6
		}
	}
	if s := r.Speedup(); s < 2.99 || s > 3.01 {
		t.Fatalf("speedup %f, want 3", s)
	}
	if (&Report{}).Speedup() != 0 {
		t.Fatal("empty report should report zero speedup")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}
