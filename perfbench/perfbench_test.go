package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCorruptedExpectationFailsPass shows each workload's output check
// failing a pass when one pinned value is wrong.
func TestCorruptedExpectationFailsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one pass of every workload")
	}
	e1 := e1Pinned
	e1.cells = append([]e1Cell(nil), e1Pinned.cells...)
	e1.cells[len(e1.cells)-1].forced++
	cert := certPinned
	cert.searches = append([]certSearch(nil), certPinned.searches...)
	cert.searches[0].states++
	svc := servicePinned
	svc.digests = map[int64]string{serviceSeed(0): "0" + servicePinned.digests[serviceSeed(0)][1:]}

	for _, c := range []struct {
		name    string
		prepare func() (passFunc, error)
	}{
		{"adversary-e1", func() (passFunc, error) { return e1Pass(e1, 0) }},
		{"checker-certify", func() (passFunc, error) { return certPass(cert, 0, enginePar) }},
		{"service-zipf", func() (passFunc, error) { return servicePass(svc, 0, enginePar) }},
	} {
		pass, err := c.prepare()
		if err != nil {
			t.Fatalf("%s: set-up: %v", c.name, err)
		}
		if _, err := pass(nil, nil); err == nil {
			t.Errorf("%s: pass with a corrupted expected value succeeded", c.name)
		} else {
			t.Logf("%s fails as it must: %v", c.name, err)
		}
	}
}

// TestDigestsIndependentOfParallelism pins the repository's contract that
// results are byte-identical at any engine parallelism, so the benchmark
// never pins a value that depends on scheduling.
func TestDigestsIndependentOfParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the checker and service workloads twice")
	}
	for _, name := range []string{"checker-certify", "service-zipf"} {
		w, _ := lookup(name)
		var digests [2]string
		for i, par := range []int{1, 2} {
			pass, err := w.prepare(3, par)
			if err != nil {
				t.Fatalf("%s parallel %d: set-up: %v", name, par, err)
			}
			out, err := pass(nil, nil)
			if err != nil {
				t.Fatalf("%s parallel %d: %v", name, par, err)
			}
			digests[i] = out.digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at parallel 1, %s at parallel 2", name, digests[0], digests[1])
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and metric
// lists in step with what the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		json []named
		prog []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
		}
		for i, m := range c.prog {
			if c.json[i] != (named{m.name, m.unit}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s", c.kind, i, c.json[i], m.name, m.unit)
			}
		}
	}
}

// TestSpanSelfTime checks that a span's self time excludes its children.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin("outer", "")
	tr.begin("inner", "a")
	tr.end()
	tr.begin("inner", "b")
	tr.end()
	tr.end()
	outer, a, b := tr.spans[0], tr.spans[1], tr.spans[2]
	if a.Parent != outer.ID || b.Root != outer.ID {
		t.Fatalf("nesting: %+v", tr.spans)
	}
	if outer.Self != outer.Dur-a.Dur-b.Dur || a.Self != a.Dur {
		t.Fatalf("self times: %+v", tr.spans)
	}
	if got := tr.sum(0, "inner"); got != float64(a.Dur+b.Dur)/1e9 {
		t.Fatalf("sum = %v", got)
	}
}
