package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/word"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRun executes a fixed two-process contention program under a fixed
// schedule and returns the traced run. Everything is pinned — program,
// schedule, model — so the event stream is byte-identical across test runs
// and suitable for golden files.
func fixtureRun(t *testing.T, model sim.Model) Run {
	t.Helper()
	m, err := sim.New(sim.Config{Procs: 2, Width: 16, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	c := m.NewCell("counter", memory.Shared, 0)
	flag := m.NewCell("flag", memory.Shared, 0)
	progs := []sim.Program{
		sim.ProgramFuncs{RunFunc: func(p *sim.Proc) {
			p.Add(c, 1)
			p.Write(flag, 1)
		}},
		sim.ProgramFuncs{RunFunc: func(p *sim.Proc) {
			p.Add(c, 1)
			p.SpinUntil(flag, func(v word.Word) bool { return v != 0 })
			p.Read(c)
		}},
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	// p1 races ahead into the spin (parking), then round-robin to the end;
	// the drive is a pure function of machine state, so the schedule — and
	// the golden files — are pinned.
	for _, a := range []int{1, 1} {
		if _, err := m.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	for !m.AllDone() {
		ps := m.PoisedProcs()
		if len(ps) == 0 {
			t.Fatal("fixture stuck")
		}
		for _, p := range ps {
			if _, err := m.Step(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return Run{Index: 0, Label: "fixture", Procs: 2, Model: model, Events: m.Trace()}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenJSONL(t *testing.T) {
	runs := []Run{fixtureRun(t, sim.CC)}
	var buf bytes.Buffer
	if err := Write(&buf, FormatJSONL, runs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture_cc.jsonl", buf.Bytes())
}

func TestGoldenChrome(t *testing.T) {
	runs := []Run{fixtureRun(t, sim.CC)}
	var buf bytes.Buffer
	if err := Write(&buf, FormatChrome, runs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture_cc_chrome.json", buf.Bytes())
}

// TestWriteTwiceIdentical runs every emitter twice on the same input and
// diffs bytes — the regression test for unordered-map iteration sneaking
// into an output path.
func TestWriteTwiceIdentical(t *testing.T) {
	runs := []Run{fixtureRun(t, sim.CC), fixtureRun(t, sim.DSM)}
	for _, f := range []Format{FormatJSONL, FormatChrome} {
		var a, b bytes.Buffer
		if err := Write(&a, f, runs); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b, f, runs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%v: two writes of the same runs differ", f)
		}
	}

	a1 := Merge(runs)
	a2 := Merge(runs)
	var s1, s2 bytes.Buffer
	WriteSummary(&s1, a1, sim.CC, 10)
	WriteSummary(&s2, a2, sim.CC, 10)
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Error("two summary renders of the same runs differ")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	runs := []Run{fixtureRun(t, sim.CC), fixtureRun(t, sim.DSM)}
	runs[1].Index = 1
	var buf bytes.Buffer
	if err := Write(&buf, FormatJSONL, runs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(runs) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(runs))
	}
	for i := range runs {
		if got[i].Index != runs[i].Index || got[i].Label != runs[i].Label ||
			got[i].Procs != runs[i].Procs || got[i].Model != runs[i].Model {
			t.Errorf("run %d header mismatch: %+v", i, got[i])
		}
		if len(got[i].Events) != len(runs[i].Events) {
			t.Fatalf("run %d: decoded %d events, want %d", i, len(got[i].Events), len(runs[i].Events))
		}
		for j, ev := range runs[i].Events {
			dec := got[i].Events[j]
			// Op decodes as a display-only custom op; compare the rest.
			if dec.Seq != ev.Seq || dec.Kind != ev.Kind || dec.Proc != ev.Proc ||
				dec.Cell != ev.Cell || dec.CellLabel != ev.CellLabel ||
				dec.Before != ev.Before || dec.After != ev.After || dec.Ret != ev.Ret ||
				dec.RMRCC != ev.RMRCC || dec.RMRDSM != ev.RMRDSM ||
				dec.Spin != ev.Spin || dec.Parked != ev.Parked || dec.Note != ev.Note {
				t.Errorf("run %d event %d mismatch:\n got %+v\nwant %+v", i, j, dec, ev)
			}
		}
	}
	// Attribution must be computable from a decoded trace.
	if want, got := Merge(runs), Merge(got); !reflect.DeepEqual(want, got) {
		t.Errorf("attribution from decoded trace differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestAttributeFlagsAndTables(t *testing.T) {
	run := fixtureRun(t, sim.CC)
	a := Attribute(run.Events)
	wantCC, wantDSM := 0, 0
	for _, ev := range run.Events {
		if ev.RMRCC {
			wantCC++
		}
		if ev.RMRDSM {
			wantDSM++
		}
	}
	if a.RMRCC != wantCC || a.RMRDSM != wantDSM {
		t.Errorf("attribution totals CC=%d DSM=%d, want CC=%d DSM=%d", a.RMRCC, a.RMRDSM, wantCC, wantDSM)
	}
	var cellCC, procCC int
	for _, c := range a.Cells {
		cellCC += c.RMRCC
	}
	for _, p := range a.Procs {
		procCC += p.RMRCC
	}
	if cellCC != wantCC || procCC != wantCC {
		t.Errorf("cell sum %d / proc sum %d, want %d", cellCC, procCC, wantCC)
	}
	top := a.TopCells(sim.CC, 1)
	if len(top) != 1 {
		t.Fatalf("TopCells(1) returned %d rows", len(top))
	}
	for _, c := range a.Cells {
		if c.RMRCC > top[0].RMRCC {
			t.Errorf("TopCells missed hotter cell %q (%d > %d)", c.Label, c.RMRCC, top[0].RMRCC)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		err  bool
	}{
		{"jsonl", FormatJSONL, false},
		{"", FormatJSONL, false},
		{"chrome", FormatChrome, false},
		{"perfetto", 0, true},
	} {
		got, err := ParseFormat(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseFormat(%q) = %v, %v", tc.in, got, err)
		}
	}
}
