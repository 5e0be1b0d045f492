package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/freq"
	"repro/internal/exact"
)

// freqdBin is built once by TestMain.
var freqdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	freqdBin = filepath.Join(dir, "freqd")
	out, err := exec.Command("go", "build", "-o", freqdBin, "repro/cmd/freqd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build freqd: " + err.Error() + ": " + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program emits, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloads runs every workload for one second, untraced and
// traced, and checks that each emits every metric with its unit, that
// its oracle passes, and that the traced run writes spans with parents.
func TestWorkloads(t *testing.T) {
	for _, name := range []string{"ingest", "query", "fleet", "history"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					workload: name, seed: 7, duration: time.Second, trace: traced,
					root: dir, freqd: freqdBin, outDir: filepath.Join(dir, "out"), setups: 1,
				}
				res, r, err := execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := report(io.Discard, cfg, r, res); err != nil {
					t.Fatal(err)
				}
				// An EST reply read while another connection flushes can
				// break lb <= est <= ub (its three numbers come from three
				// shard reads); such replies are answered ops, counted on
				// their own. Every failed op fails the test.
				var torn int64
				for _, w := range r.workers {
					torn += w.tornEst
				}
				if !res.Correct || res.Attempted < 1 || r.oracle.violations != 0 || r.badReplies != 0 ||
					res.Failed != 0 {
					t.Fatalf("result %+v, %d torn EST replies; notes %v %v", res, torn, r.notes, r.oracle.notes)
				}
				if torn != 0 {
					t.Logf("%d torn EST replies", torn)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0; notes %v", d.name, m.Value, r.notes)
					}
				}
				if traced {
					checkSpans(t, filepath.Join(cfg.outDir, "trace-"+name+"-seed7.jsonl"))
				}
			})
		}
	}
}

// checkSpans checks that a trace file holds wire spans and replay spans
// whose parents are among its spans.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	ids := map[uint64]bool{}
	var parents []uint64
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		ids[s.ID] = true
		if s.Parent != 0 {
			parents = append(parents, s.Parent)
		}
	}
	if len(parents) == 0 {
		t.Fatal("no child spans")
	}
	for _, p := range parents {
		if !ids[p] {
			t.Fatalf("span parent %d not in trace", p)
		}
	}
}

// TestOracleCatchesWrongTotals feeds the oracle a deliberately wrong
// expected total and a wrong exact count: both must fail it.
func TestOracleCatchesWrongTotals(t *testing.T) {
	var o oracle
	o.weight("right", 100, 100)
	if o.violations != 0 {
		t.Fatal("equal weights flagged")
	}
	o.weight("wrong", 100, 101)
	if o.violations != 1 {
		t.Fatalf("wrong expected total not flagged: %d violations", o.violations)
	}

	sk, err := freq.New[int64](64)
	if err != nil {
		t.Fatal(err)
	}
	ex := exact.New()
	for i := int64(0); i < 1000; i++ {
		item, w := i%50, i%7+1
		if err := sk.Update(item, w); err != nil {
			t.Fatal(err)
		}
		ex.Update(item, w)
	}
	o = oracle{}
	o.bounds("right", sk, ex, 1)
	if o.violations != 0 {
		t.Fatalf("correct counts flagged: %v", o.notes)
	}
	ex.Update(3, 1000) // the daemon never saw this weight
	o.bounds("wrong", sk, ex, 1)
	if o.violations == 0 {
		t.Fatal("inflated exact count not flagged")
	}
}

// TestReplyChecks checks how replies are classified: rows out of order
// or outside their bounds, and negative bounds, are errBadReply (they
// fail the run); an EST whose bounds miss its estimate is errTornEst,
// an answered op counted on its own.
func TestReplyChecks(t *testing.T) {
	row := func(est, lb, ub int64) freq.Row[int64] {
		return freq.Row[int64]{Estimate: est, LowerBound: lb, UpperBound: ub}
	}
	for _, c := range []struct {
		name string
		err  error
		want error
	}{
		{"sorted rows", checkRows([]freq.Row[int64]{row(9, 8, 9), row(5, 5, 6)}, nil), nil},
		{"unsorted rows", checkRows([]freq.Row[int64]{row(5, 5, 6), row(9, 8, 9)}, nil), errBadReply},
		{"row above its bound", checkRows([]freq.Row[int64]{row(9, 8, 8)}, nil), errBadReply},
		{"negative row bound", checkRows([]freq.Row[int64]{row(0, -1, 0)}, nil), errBadReply},
		{"bracketed EST", checkEst(5, 4, 6, nil), nil},
		{"torn EST", checkEst(5, 6, 7, nil), errTornEst},
		{"negative EST bound", checkEst(5, -1, 6, nil), errBadReply},
	} {
		if c.err != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.err, c.want)
		}
	}
	w := &worker{r: &run{}, lastDone: new(time.Time)}
	w.do("topk", time.Time{}, 0, func() error { return errBadReply })
	w.do("est", time.Time{}, 0, func() error { return errTornEst })
	if w.badReplies != 1 || w.tornEst != 1 || w.errReplies != 0 {
		t.Errorf("bad %d, torn %d, err replies %d; want 1, 1, 0", w.badReplies, w.tornEst, w.errReplies)
	}
	if !w.recs[0].failed || w.recs[1].failed {
		t.Errorf("failed %v, %v; want a failed TOPK and an answered EST", w.recs[0].failed, w.recs[1].failed)
	}
}

// TestMarkQuiet checks which slots count: every slot under the steal
// limit, and at least a share stealKeep of each part, least stolen
// first; and how much of the untraced part the hypervisor left.
func TestMarkQuiet(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := &run{start: t0, end: t0.Add(10 * stealSlot), prov: map[string]any{}}
	r.mid = t0.Add(5 * stealSlot)
	capacity := stealSlot * time.Duration(runtime.NumCPU())
	// Stolen share per slot; the first part is busy, the second quiet
	// but for one slot.
	shares := []float64{0.3, 0.2, 0.4, 0.1, 0.5, 0, 0.01, 0.9, 0.02, 0}
	stolen := func(s float64) time.Duration { return time.Duration(s * float64(capacity)) }
	// busy(s, cpus) is what the CPUs ran in a slot where cpus CPUs wanted
	// to run throughout and s of the capacity was stolen.
	busy := func(s float64, cpus int) time.Duration {
		return max(time.Duration(cpus)*stealSlot-stolen(s), 0)
	}
	marksFor := func(cpus int) []cpuSample {
		marks := []cpuSample{{}}
		for _, s := range shares {
			last := marks[len(marks)-1]
			marks = append(marks, cpuSample{busy: last.busy + busy(s, cpus), steal: last.steal + stolen(s)})
		}
		return marks
	}
	r.markQuiet(marksFor(1))
	want := []bool{false, true, false, true, false, true, true, false, true, true}
	if !slices.Equal(r.quiet, want) {
		t.Fatalf("quiet %v, want %v", r.quiet, want)
	}
	if !r.counted(t0.Add(stealSlot), t0.Add(stealSlot+1)) || r.counted(t0.Add(stealSlot), t0.Add(2*stealSlot)) {
		t.Error("an op counts only when every slot it touches does")
	}
	if !r.counted(t0.Add(-time.Second), t0.Add(-time.Millisecond)) {
		t.Error("times before the window touch no slot")
	}
	// With one CPU wanted, each of the untraced part's five slots loses
	// its stolen time, up to the slot's length; with two, half of it.
	for cpus, charge := range map[int]func(time.Duration) time.Duration{
		1: func(s time.Duration) time.Duration { return min(s, stealSlot) },
		2: func(s time.Duration) time.Duration { return s / 2 },
	} {
		if cpus > runtime.NumCPU() {
			continue
		}
		r.unstolenA = 0
		r.markQuiet(marksFor(cpus))
		var unstolen time.Duration
		for _, s := range shares[:5] {
			unstolen += stealSlot - charge(stolen(s))
		}
		if d := r.unstolenA - unstolen; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%d CPUs wanted: unstolen %v, want %v", cpus, r.unstolenA, unstolen)
		}
	}
}
