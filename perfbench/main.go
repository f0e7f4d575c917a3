// Command perfbench is the gap-search stack's benchmark. One run drives one
// workload through the public APIs of the core, blackbox, serve and sweep
// packages in a closed loop for a fixed time, checks every answer against
// solvers the answer did not come from, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, latency, allocation, retained heap, gap found); with
// --trace 1 they are the per-layer ones, measured from outside each layer.
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is measured.
const setups = 3

// config is what every workload is built from.
type config struct {
	seed  int64
	trace bool
	// plant corrupts the first answer before it is checked ("gap" or
	// "demand"): the run must then report correct=false and exit 1.
	plant string
}

// bench is one set-up workload.
type bench interface {
	// round runs one whole round of the workload's operations, recording
	// each on rec, and returns the wall time of its measured part.
	round(rec *recorder) (time.Duration, error)
	// layers returns the per-layer metrics after the measured rounds; it is
	// called only with --trace 1.
	layers(rec *recorder) (map[string]float64, error)
	close() error
}

type workload struct {
	name  string
	setup func(cfg config) (bench, error)
}

var workloads = []workload{
	{"dfs_prove", newDFSProve},
	{"blackbox_pop", newBlackboxPOP},
	{"sweep_cold", newSweepCold},
	{"sweep_hits", newSweepHits},
}

// mismatch is an answer that failed an independent check: the operation
// completed, and what it returned is wrong.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "wrong answer: " + m.msg }

func wrong(format string, args ...any) error {
	return &mismatch{fmt.Sprintf(format, args...)}
}

// recorder accounts for every operation of the measured rounds.
type recorder struct {
	cfg       config
	lat       []float64 // seconds per operation, failed ones included
	gaps      []float64 // verified gap per operation that did not fail
	attempted int
	failed    int
	wrong     int
	planted   bool
}

// add records one finished operation. err is nil for a correct answer, a
// *mismatch for a wrong one and anything else for an operation that failed.
func (r *recorder) add(d time.Duration, gap float64, err error) {
	r.attempted++
	r.lat = append(r.lat, d.Seconds())
	var m *mismatch
	switch {
	case err == nil:
		r.gaps = append(r.gaps, gap)
	case errors.As(err, &m):
		r.wrong++
		r.gaps = append(r.gaps, gap)
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	default:
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// flag records a wrong answer found outside the measured operations.
func (r *recorder) flag(err error) {
	r.wrong++
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
}

// plantOnce reports whether this answer is the one --plant corrupts.
func (r *recorder) plantOnce(what string) bool {
	if r.cfg.plant != what || r.planted {
		return false
	}
	r.planted = true
	return true
}

func main() {
	name := flag.String("workload", "", "workload: dfs_prove, blackbox_pop, sweep_cold, sweep_hits")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	plant := flag.String("plant", "", "corrupt the first answer (gap or demand) to show the checks catch it")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *plant != "" && *plant != "gap" && *plant != "demand" {
		fatalf("--plant must be gap or demand")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	cfg := config{seed: *seed, trace: *trace == 1, plant: *plant}
	res, err := run(w, cfg, time.Duration(*seconds)*time.Second)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run sets the workload up several times, keeps the last set-up, runs
// whole rounds for about the asked time, and assembles the result.
func run(w *workload, cfg config, seconds time.Duration) (*result, error) {
	var setupTimes []time.Duration
	var b bench
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		nb, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
		if i < setups-1 {
			if err := nb.close(); err != nil {
				return nil, err
			}
			continue
		}
		b = nb
	}
	defer b.close()

	rec := &recorder{cfg: cfg}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var measured time.Duration
	rounds := 0
	// Whole rounds only: another round starts while the run would end
	// nearer the asked length with it than without it.
	for rounds == 0 || time.Since(start)+time.Since(start)/time.Duration(2*rounds) < seconds {
		d, err := b.round(rec)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", rounds+1, err)
		}
		measured += d
		rounds++
	}
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	values := map[string]float64{}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		lv, err := b.layers(rec)
		if err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		for k, v := range lv {
			values[k] = v
		}
		values["traced.ops_per_s"] = float64(rec.attempted) / measured.Seconds()
		values["traced.op_s.p50"] = median(rec.lat)
	} else {
		values["setup_s"] = medianDuration(setupTimes).Seconds()
		values["ops_per_s"] = float64(rec.attempted) / measured.Seconds()
		values["op_s.p50"] = median(rec.lat)
		values["op_s.p90"] = quantile(rec.lat, 0.9)
		values["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(rec.attempted)
		values["retained_mb"] = float64(live.HeapAlloc) / 1e6
		values["gap_found"] = mean(rec.gaps)
	}
	metrics, err := buildMetrics(specs, values)
	if err != nil {
		return nil, err
	}
	summarize(w.name, rec, rounds, measured, setupTimes, values)
	return &result{
		Correct:   rec.wrong == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   metrics,
	}, nil
}

// summarize prints a human-readable account of the run to standard error.
func summarize(name string, rec *recorder, rounds int, measured time.Duration, setupTimes []time.Duration, values map[string]float64) {
	fmt.Fprintf(os.Stderr, "perfbench %s: %d rounds, %d ops (%d failed, %d wrong) in %.3fs measured; set-ups %v\n",
		name, rounds, rec.attempted, rec.failed, rec.wrong, measured.Seconds(), setupTimes)
	n := len(rec.lat)
	if q, ok := tailQuantile(n); ok {
		fmt.Fprintf(os.Stderr, "  %d latency samples: p%g = %.6fs has %d beyond it, op_s.p90 has %d\n",
			n, q*100, quantile(rec.lat, q), beyond(n, q), beyond(n, 0.9))
	} else {
		fmt.Fprintf(os.Stderr, "  %d latency samples, too few for a tail: op_s.p90 is an order statistic of the round's fixed mix\n", n)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %.6g\n", k, values[k])
	}
}
