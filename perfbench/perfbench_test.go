package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/mcf"
	"repro/internal/milp"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true},
		{999, 0.9, true}, // p99 of 999 has only 9 beyond it
		{100, 0.9, true},
		{99, 0.75, true},
		{40, 0.75, true},
		{39, 0, false},
		{5, 0, false},
		{0, 0, false},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.q || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.q, tc.ok)
		}
		if ok && beyond(tc.n, q) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, q*100, beyond(tc.n, q))
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("nearest-rank p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("p99 of three samples = %v, want the largest", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

// TestMetricsMatchBenchmarkJSON holds the program's metric lists equal,
// name, unit and order, to BENCHMARK.json at the root of the repository.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, tc := range []struct {
		what string
		prog []metricSpec
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(tc.prog) != len(tc.json) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", tc.what, len(tc.prog), len(tc.json))
		}
		for i, m := range tc.prog {
			if m.name != tc.json[i].Name || m.unit != tc.json[i].Unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", tc.what, i, m.name, m.unit, tc.json[i].Name, tc.json[i].Unit)
			}
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("%s: bad name or unit %q %q", tc.what, m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("%s used twice", m.name)
			}
			seen[m.name] = true
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, bj.Workloads[i].Name)
		}
	}
}

func TestBuildMetricsRejectsGapsAndStrays(t *testing.T) {
	specs := []metricSpec{{"a", "s"}, {"b", "count"}}
	if _, err := buildMetrics(specs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric passed")
	}
	if _, err := buildMetrics(specs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric passed")
	}
	if _, err := buildMetrics(specs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN metric passed")
	}
	got, err := buildMetrics(specs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"] != (metricValue{2, "count"}) {
		t.Errorf("buildMetrics = %v, %v", got, err)
	}
}

// figure1 solves the paper's Figure 1 instance once for the check tests.
func figure1(t *testing.T) (*mcf.Instance, answer) {
	t.Helper()
	c := dfsCases[1]
	inst, err := c.instance()
	if err != nil {
		t.Fatal(err)
	}
	pr := &core.DPGapProblem{Inst: inst, Threshold: c.threshold, Input: core.InputConstraints{MaxDemand: maxDemand}}
	res, err := pr.Solve(milp.Options{DepthFirst: true, WarmStart: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return inst, answer{
		demands: res.Demands, gap: res.Gap, modelGap: res.ModelGap,
		bound: res.Solver.Bound, opt: res.OptValue, heur: res.HeurValue,
	}
}

func isMismatch(err error) bool {
	var m *mismatch
	return errors.As(err, &m)
}

func TestChecksPassTheRightAnswer(t *testing.T) {
	inst, a := figure1(t)
	if err := check(a, inst.Demands.Len(), dpRepricer(inst, 50), 0, 100); err != nil {
		t.Fatalf("the Figure 1 answer failed its checks: %v", err)
	}
}

func TestChecksCatchPlantedAnswers(t *testing.T) {
	inst, good := figure1(t)
	price := dpRepricer(inst, 50)
	n := inst.Demands.Len()
	clone := func() answer {
		a := good
		a.demands = append([]float64(nil), good.demands...)
		return a
	}
	for _, tc := range []struct {
		name   string
		plant  func(a *answer)
		lower  float64
		exact  float64
		reason string
	}{
		{"gap", func(a *answer) { a.gap++ }, 0, noClaim, "re-priced"},
		{"gap below the paper's", func(a *answer) {}, 0, 101, "paper"},
		{"demand above the box", func(a *answer) { a.demands[0] = maxDemand + 1 }, 0, noClaim, "outside"},
		{"negative demand", func(a *answer) { a.demands[1] = -1 }, 0, noClaim, "outside"},
		{"NaN demand", func(a *answer) { a.demands[2] = math.NaN() }, 0, noClaim, "outside"},
		{"missing demand", func(a *answer) { a.demands = a.demands[1:] }, 0, noClaim, "demands for"},
		{"model gap", func(a *answer) { a.modelGap += 0.5 }, 0, noClaim, "meta-model"},
		{"bound below gap", func(a *answer) { a.bound = a.gap - 1 }, 0, noClaim, "bound"},
		{"reported values", func(a *answer) { a.opt++ }, 0, noClaim, "reported"},
		{"optimum below a sampled gap", func(a *answer) {}, 150, noClaim, "hill climb"},
	} {
		a := clone()
		tc.plant(&a)
		err := check(a, n, price, tc.lower, tc.exact)
		if !isMismatch(err) {
			t.Errorf("%s: check = %v, want a mismatch", tc.name, err)
			continue
		}
		if !regexp.MustCompile(tc.reason).MatchString(err.Error()) {
			t.Errorf("%s: %v does not say %q", tc.name, err, tc.reason)
		}
	}
}

func TestPOPCheckCatchesPlantedGap(t *testing.T) {
	inst, err := dpCase{topology: "b4", pairs: popPairs, seed: 1}.instance()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	assignments := make([][]int, popAssignments)
	for i := range assignments {
		assignments[i] = mcf.RandomAssignment(popPairs, popPartitions, rng)
	}
	d := make([]float64, popPairs)
	for k := range d {
		d[k] = rng.Float64() * maxDemand
	}
	g, err := blackbox.POPGap(inst, assignments, popPartitions)(d)
	if err != nil {
		t.Fatal(err)
	}
	a := answer{demands: d, gap: g, modelGap: noClaim, bound: noClaim, opt: noClaim, heur: noClaim}
	price := popRepricer(inst, assignments, popPartitions)
	if err := check(a, popPairs, price, math.Inf(-1), noClaim); err != nil {
		t.Fatalf("a true POP gap failed: %v", err)
	}
	a.gap += 1e-3
	if err := check(a, popPairs, price, math.Inf(-1), noClaim); !isMismatch(err) {
		t.Fatalf("a planted POP gap passed: %v", err)
	}
}

func TestPlantCorruptsOnlyTheFirstAnswer(t *testing.T) {
	rec := &recorder{cfg: config{plant: "demand"}}
	a := answer{demands: []float64{1, 2}, gap: 3}
	plant(rec, &a)
	if a.demands[0] != maxDemand+1 || a.gap != 3 {
		t.Fatalf("first answer after plant: %+v", a)
	}
	b := answer{demands: []float64{1, 2}, gap: 3}
	plant(rec, &b)
	if b.demands[0] != 1 {
		t.Fatalf("second answer was corrupted too: %+v", b)
	}
}

func TestRecorderCountsEveryOperation(t *testing.T) {
	rec := &recorder{}
	rec.add(time.Second, 5, nil)
	rec.add(2*time.Second, 0, errors.New("solver failed"))
	rec.add(3*time.Second, 7, wrong("planted"))
	if rec.attempted != 3 || rec.failed != 1 || rec.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d", rec.attempted, rec.failed, rec.wrong)
	}
	if len(rec.lat) != 3 {
		t.Fatalf("%d latency samples for 3 operations: a failed one was dropped", len(rec.lat))
	}
	if len(rec.gaps) != 2 {
		t.Fatalf("%d gaps, want the 2 operations that did not fail", len(rec.gaps))
	}
}

func TestCellTimingSpansSubmitToResult(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	log := []exchange{
		{method: http.MethodPost, body: "A", start: at(0), end: at(5)}, // transport error, retried
		{method: http.MethodPost, body: "A", start: at(10), end: at(12), id: "j1", state: "queued"},
		{method: http.MethodPost, body: "B", start: at(11), end: at(13), id: "j2", state: "queued"},
		{method: http.MethodGet, start: at(60), end: at(61), id: "j1", state: "running"},
		{method: http.MethodGet, start: at(110), end: at(112), id: "j1", state: "done", wallSec: "0.09"},
		{method: http.MethodGet, start: at(111), end: at(113), id: "j2", state: "done", wallSec: "0.01"},
	}
	lat, id, wall, polls, posts := cellTiming(log, "A")
	if lat != 112*time.Millisecond || id != "j1" || wall != "0.09" || polls != 2 || posts != 2 {
		t.Fatalf("cellTiming = %v %s %s polls=%d posts=%d", lat, id, wall, polls, posts)
	}
	if _, id, _, _, _ := cellTiming(log, "C"); id != "" {
		t.Fatalf("a cell never submitted matched job %s", id)
	}
}
