package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. The two lists below are
// the benchmark's whole output vocabulary: a run prints exactly endToEnd
// with --trace 0 and exactly perLayer with --trace 1, and a test holds both
// lists equal to BENCHMARK.json.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_s.p50", "s"},
	{"op_s.p90", "s"},
	{"alloc_mb_per_op", "MB"},
	{"retained_mb", "MB"},
	{"gap_found", "flow"},
}

var perLayer = []metricSpec{
	{"lp.solves_per_op", "count"},
	{"lp.iters_per_op", "count"},
	{"lp.solve_s_per_op", "s"},
	{"lp.s_per_solve", "s"},
	{"lp.phases_s_per_op", "s"},
	{"lp.warm_fallback_ratio", "ratio"},
	{"milp.nodes_per_op", "count"},
	{"milp.self_s_per_op", "s"},
	{"core.build_s_per_op", "s"},
	{"core.verify_s_per_op", "s"},
	{"core.polish_per_op", "count"},
	{"core.polish_accept_ratio", "ratio"},
	{"mcf.evals_per_op", "count"},
	{"mcf.eval_s.p50", "s"},
	{"checkpoint.writes_per_op", "count"},
	{"checkpoint.overhead_s_per_op", "s"},
	{"serve.submit_s.p50", "s"},
	{"serve.service_s.p50", "s"},
	{"serve.ledger_jobs", "count"},
	{"serve.solver_runs_per_op", "count"},
	{"sweep.polls_per_op", "count"},
	{"sweep.retries", "count"},
	{"traced.ops_per_s", "1/s"},
	{"traced.op_s.p50", "s"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics pairs every spec with its measured value. A spec without a
// value, a value without a spec, or a non-finite value is an error: the
// output must name exactly the metrics BENCHMARK.json declares.
func buildMetrics(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a share q of the samples at or below it.
// It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)]
}

// rankOf is the zero-based nearest-rank index of the q-quantile of n
// samples.
func rankOf(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly above the nearest-rank q-quantile of n.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(n, q)
}

// tailQuantile picks the highest of p99, p90 and p75 that has at least ten
// samples beyond it, so a reported tail is never one or two outliers. ok is
// false when even p75 has fewer than ten.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.99, 0.9, 0.75} {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
