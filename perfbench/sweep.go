package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// The sweep_cold grid: 3-pair B4 DP cells, thresholds x demand seeds, each
// with a nonzero proved gap.
var (
	coldThresholds = []float64{5, 10, 20}
	coldSeeds      = []int64{5, 7, 9}
)

// sweepClientWorkers is the gapsweep runner's client concurrency.
const sweepClientWorkers = 2

// storedAnswer turns a daemon record into a checkable answer.
func storedAnswer(sr *serve.StoredResult) (answer, error) {
	if sr == nil {
		return answer{}, fmt.Errorf("no result")
	}
	if sr.Status != "optimal" {
		return answer{}, fmt.Errorf("status %s, want optimal", sr.Status)
	}
	a := answer{modelGap: noClaim}
	var err error
	parse := func(s string) float64 {
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil && err == nil {
			err = perr
		}
		return v
	}
	a.gap, a.bound = parse(sr.Gap), parse(sr.Bound)
	a.opt, a.heur = parse(sr.OptValue), parse(sr.HeurValue)
	for _, d := range sr.Demands {
		a.demands = append(a.demands, parse(d))
	}
	return a, err
}

type sweepCold struct {
	cfg   config
	d     *daemon
	fresh bool // d has run no measured round yet
	probs map[string]*dpProblem
	rng   *rand.Rand
	rt    *recordingTransport
	tmp   string
	lt    layerTotals
	cases []dpCase
	// daemonNodes is each cell's node count as the daemon reported it.
	daemonNodes map[string]int64
}

func coldKey(thr float64, seed int64) string { return fmt.Sprintf("%g/%d", thr, seed) }

func newSweepCold(cfg config) (bench, error) {
	var cases []dpCase
	for _, t := range coldThresholds {
		for _, s := range coldSeeds {
			cases = append(cases, dpCase{topology: "b4", pairs: 3, seed: s, threshold: t, exact: noClaim})
		}
	}
	probs, err := buildDPProblems(cases, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &sweepCold{cfg: cfg, probs: map[string]*dpProblem{}, rng: rand.New(rand.NewSource(cfg.seed)), rt: newRecordingTransport(), cases: cases, daemonNodes: map[string]int64{}}
	for _, p := range probs {
		b.probs[coldKey(p.c.threshold, p.c.seed)] = p
	}
	if b.tmp, err = os.MkdirTemp("", "perfbench-sweep-"); err != nil {
		return nil, err
	}
	if b.d, err = startDaemon(nil); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up: the Figure 1 cell through the same client path, untimed.
	fig := dpCase{topology: "figure1", pairs: -1, seed: 1, threshold: 50}.spec()
	client := sweep.NewClient([]string{b.d.url}, sweep.DefaultPolicy())
	client.HTTP = &http.Client{Transport: b.rt}
	if _, err := client.RunJob(context.Background(), b.d.url, &fig); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.rt.take()
	b.fresh = true
	return b, nil
}

// round runs the whole grid through the gapsweep runner against a daemon
// that has solved none of it. The daemon restart between rounds is not
// measured.
func (b *sweepCold) round(rec *recorder) (time.Duration, error) {
	if !b.fresh {
		if err := b.d.stop(); err != nil {
			return 0, err
		}
		d, err := startDaemon(nil)
		if err != nil {
			b.d = nil
			return 0, err
		}
		b.d = d
	}
	b.fresh = false
	runsBefore, err := b.d.metric("serve_solver_runs_total")
	if err != nil {
		return 0, err
	}
	grid := &sweep.Grid{Base: b.cases[0].spec(), Thresholds: permuted(b.rng, coldThresholds), Seeds: permuted(b.rng, coldSeeds)}
	ledgerDir, err := os.MkdirTemp(b.tmp, "ledger-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(ledgerDir)
	ledger, err := sweep.OpenLedger(filepath.Join(ledgerDir, "sweep.ledger"), nil)
	if err != nil {
		return 0, err
	}
	client := sweep.NewClient([]string{b.d.url}, sweep.DefaultPolicy())
	client.HTTP = &http.Client{Transport: b.rt}
	runner := &sweep.Runner{Client: client, Ledger: ledger, Grid: grid, Seed: b.cfg.seed, Workers: sweepClientWorkers}
	t0 := time.Now()
	rep, err := runner.Run(context.Background())
	measured := time.Since(t0)
	if err != nil {
		return 0, err
	}
	log := b.rt.take()
	if b.cfg.trace {
		for _, e := range log {
			if e.method == http.MethodPost {
				b.lt.submitLat = append(b.lt.submitLat, e.end.Sub(e.start).Seconds())
			}
		}
	}
	for _, cr := range rep.Cells {
		lat, id, wall, polls, posts := cellTiming(log, string(cr.Spec))
		if id == "" {
			lat = measured
		}
		var spec serve.Spec
		if err := json.Unmarshal(cr.Spec, &spec); err != nil {
			return 0, err
		}
		p := b.probs[coldKey(spec.Threshold, spec.Seed)]
		if cr.Status != sweep.StatusDone {
			rec.add(lat, 0, fmt.Errorf("cell %s: %s: %s", cr.Name, cr.Status, cr.Error))
			continue
		}
		a, err := storedAnswer(cr.Result)
		if err != nil {
			rec.add(lat, 0, fmt.Errorf("cell %s: %w", cr.Name, err))
			continue
		}
		b.daemonNodes[coldKey(spec.Threshold, spec.Seed)] = cr.Result.Nodes
		plant(rec, &a)
		rec.add(lat, a.gap, check(a, p.inst.Demands.Len(), dpRepricer(p.inst, p.c.threshold), p.lower, p.c.exact))
		if b.cfg.trace {
			if err := b.traceCell(cr.Result, id, lat, wall, polls, posts); err != nil {
				return 0, err
			}
		}
	}
	if b.cfg.trace {
		runsAfter, err := b.d.metric("serve_solver_runs_total")
		if err != nil {
			return 0, err
		}
		b.lt.solverRuns += runsAfter - runsBefore
	}
	return measured, nil
}

// cellTiming finds one cell's exchanges in the transport log: its latency
// runs from the first submission of its spec to the answer that carried
// its result.
func cellTiming(log []exchange, spec string) (lat time.Duration, id string, wallSec string, polls, posts int) {
	var start time.Time
	for _, ex := range log {
		if ex.method == http.MethodPost && ex.body == spec {
			posts++
			if start.IsZero() {
				start = ex.start
			}
			if ex.id != "" {
				id = ex.id
			}
		}
	}
	if id == "" {
		return 0, "", "", 0, posts
	}
	for _, ex := range log {
		if ex.id != id {
			continue
		}
		if ex.method == http.MethodGet {
			polls++
		}
		if ex.state == "done" {
			lat, wallSec = ex.end.Sub(start), ex.wallSec
		}
	}
	return lat, id, wallSec, polls, posts
}

// traceCell adds one cell's per-layer observations: the daemon's counters
// from its stored result, the checkpoint writes and phase times from its
// event stream, and the client's exchanges.
func (b *sweepCold) traceCell(sr *serve.StoredResult, id string, lat time.Duration, wallSec string, polls, posts int) error {
	b.lt.lpSolves += float64(sr.LPSolves)
	b.lt.lpIters += float64(sr.LPIters)
	b.lt.warmSolves += float64(sr.WarmSolves)
	b.lt.warmFallbacks += float64(sr.WarmFallbks)
	b.lt.nodes += float64(sr.Nodes)
	b.lt.polls += polls
	b.lt.retries += posts - 1
	if wall, err := strconv.ParseFloat(wallSec, 64); err == nil {
		b.lt.serviceLat = append(b.lt.serviceLat, lat.Seconds()-wall)
	}
	evs, err := b.d.jobEvents(id)
	if err != nil {
		return err
	}
	for _, r := range evs {
		switch {
		case r.Kind == obs.KindCheckpointWrite.String():
			b.lt.ckptWrites++
		case r.Kind == obs.KindPhaseEnd.String() && r.Phase == "build":
			b.lt.build += time.Duration(r.DurSec * float64(time.Second))
		case r.Kind == obs.KindPhaseEnd.String() && r.Phase == "verify":
			b.lt.verify += time.Duration(r.DurSec * float64(time.Second))
		}
	}
	return nil
}

// layers adds what the daemon cannot show: each grid cell is solved
// in-process with and without a checkpoint file, the daemon's settings
// otherwise; the node-LP times and polish counts come from the
// checkpointed solve. Both must explore the daemon's tree.
func (b *sweepCold) layers(rec *recorder) (map[string]float64, error) {
	jobs, err := b.d.ledgerJobs()
	if err != nil {
		return nil, err
	}
	b.lt.ledgerJobs = jobs
	for i, c := range b.cases {
		p := b.probs[coldKey(c.threshold, c.seed)]
		spec := c.spec()
		opts := milp.Options{
			TimeLimit: specBudget(spec), DepthFirst: true, StallWindow: specBudget(spec) / 3, StallImprove: 0.005,
			Workers: 1, WarmStart: true,
		}
		pr := &core.DPGapProblem{Inst: p.inst, Threshold: c.threshold, Input: core.InputConstraints{MaxDemand: maxDemand}}
		plain, err := pr.Solve(opts)
		if err != nil {
			return nil, err
		}
		opts.Checkpoint = filepath.Join(b.tmp, fmt.Sprintf("cell%d.ckpt", i))
		opts.Tracer = obs.NewTracer(&b.lt.sink)
		clock := readLPClock()
		ckpt, err := pr.Solve(opts)
		b.lt.addLPClock(clock)
		if err != nil {
			return nil, err
		}
		want := b.daemonNodes[coldKey(c.threshold, c.seed)]
		if !near(plain.Gap, ckpt.Gap) || int64(plain.Solver.Nodes) != want || int64(ckpt.Solver.Nodes) != want {
			rec.flag(wrong("%v: in-process solves explored %d (plain) and %d (checkpointed) nodes, the daemon %d",
				c, plain.Solver.Nodes, ckpt.Solver.Nodes, want))
		}
		b.lt.ckptOverhead += ckpt.Timings.Solve - plain.Timings.Solve
		b.lt.ckptSolves++
		b.lt.solve += ckpt.Timings.Solve
	}
	return b.lt.metrics(rec.attempted, b.lt.ckptSolves), nil
}

func (b *sweepCold) close() error {
	var err error
	if b.d != nil {
		err = b.d.stop()
	}
	b.rt.close()
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
	}
	return err
}

// permuted returns a seeded shuffle of xs.
func permuted[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// hitCases fill the store for sweep_hits: the Figure 1 cell (gap exactly
// 100) and four cheap 3-pair B4 cells.
var hitCases = []dpCase{
	{topology: "figure1", pairs: -1, seed: 1, threshold: 50, exact: 100},
	{topology: "b4", pairs: 3, seed: 7, threshold: 5, exact: noClaim},
	{topology: "b4", pairs: 3, seed: 7, threshold: 10, exact: noClaim},
	{topology: "b4", pairs: 3, seed: 7, threshold: 20, exact: noClaim},
	{topology: "b4", pairs: 3, seed: 9, threshold: 10, exact: noClaim},
}

// hitPasses is how many passes over the cells one sweep_hits round makes
// (1000 hits). Each round runs on a daemon restarted from the state set-up
// left (store filled, ledger holding the set-up's jobs), so every round
// admits the same number of jobs onto a ledger of the same size: the growth
// of per-hit cost with job history shows within a round and repeats
// exactly across rounds and runs.
const hitPasses = 200

type sweepHits struct {
	cfg    config
	d      *daemon
	fresh  bool              // d has served no measured round yet
	state  map[string][]byte // the daemon's state files after set-up
	client *sweep.Client
	rt     *recordingTransport
	specs  []serve.Spec
	stored []*serve.StoredResult
	rng    *rand.Rand
	lt     layerTotals
}

func newSweepHits(cfg config) (bench, error) {
	probs, err := buildDPProblems(hitCases, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &sweepHits{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), rt: newRecordingTransport()}
	if b.d, err = startDaemon(nil); err != nil {
		return nil, err
	}
	// Untraced runs time the hits on a plain transport; traced runs record
	// every exchange.
	b.client = sweep.NewClient([]string{b.d.url}, sweep.DefaultPolicy())
	b.client.HTTP = &http.Client{Transport: b.rt.base}
	if cfg.trace {
		b.client.HTTP = &http.Client{Transport: b.rt}
	}
	// Fill the store: one cold solve per cell, each answer checked.
	for _, p := range probs {
		spec := p.c.spec()
		view, err := b.client.RunJob(context.Background(), b.d.url, &spec)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("filling the store with %v: %w", p.c, err)
		}
		a, err := storedAnswer(view.Result)
		if err == nil {
			err = check(a, p.inst.Demands.Len(), dpRepricer(p.inst, p.c.threshold), p.lower, p.c.exact)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("filling the store with %v: %w", p.c, err)
		}
		b.specs = append(b.specs, p.c.spec())
		b.stored = append(b.stored, view.Result)
	}
	// Warm-up: one hit, untimed.
	if err := b.hit(0, nil, nil); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.rt.take()
	if b.state, err = b.d.state(); err != nil {
		b.close()
		return nil, err
	}
	b.fresh = true
	return b, nil
}

// hit resubmits cell i and checks that the store answered it with the
// record the cold solve stored. It times the submission into d when d is
// not nil, and applies --plant to the returned record when rec is not nil.
func (b *sweepHits) hit(i int, d *time.Duration, rec *recorder) error {
	spec := b.specs[i]
	t0 := time.Now()
	view, cached, err := b.client.Submit(context.Background(), b.d.url, &spec)

	if d != nil {
		*d = time.Since(t0)
	}
	if err != nil {
		return err
	}
	if !cached || view.State != "done" || view.Result == nil {
		return wrong("resubmission of cell %d answered %s, not from the store", i, view.State)
	}
	if rec != nil && rec.plantOnce("gap") {
		view.Result.Gap = "-1"
	}
	if rec != nil && rec.plantOnce("demand") && len(view.Result.Demands) > 0 {
		view.Result.Demands[0] = strconv.FormatFloat(maxDemand+1, 'g', -1, 64)
	}
	if !reflect.DeepEqual(view.Result, b.stored[i]) {
		return wrong("cache hit for cell %d returned a record other than the one its cold solve stored", i)
	}
	return nil
}

// round restarts the daemon from the set-up state (not measured) and
// resubmits every cell hitPasses times, in a seeded order per pass.
func (b *sweepHits) round(rec *recorder) (time.Duration, error) {
	if !b.fresh {
		if err := b.d.stop(); err != nil {
			return 0, err
		}
		d, err := startDaemon(b.state)
		if err != nil {
			b.d = nil
			return 0, err
		}
		b.d = d
	}
	b.fresh = false
	runsBefore, err := b.d.metric("serve_solver_runs_total")
	if err != nil {
		return 0, err
	}
	var measured time.Duration
	for pass := 0; pass < hitPasses; pass++ {
		for _, i := range b.rng.Perm(len(b.specs)) {
			var d time.Duration
			err := b.hit(i, &d, rec)
			measured += d
			gap, perr := strconv.ParseFloat(b.stored[i].Gap, 64)
			if perr != nil {
				return 0, perr
			}
			rec.add(d, gap, err)
		}
	}
	if b.cfg.trace {
		for _, e := range b.rt.take() {
			if e.method == http.MethodPost {
				b.lt.submitLat = append(b.lt.submitLat, e.end.Sub(e.start).Seconds())
			}
		}
		runs, err := b.d.metric("serve_solver_runs_total")
		if err != nil {
			return 0, err
		}
		b.lt.solverRuns += runs - runsBefore
	}
	return measured, nil
}

// layers reports the hit path from outside: the client's submission
// round trips, the admission model build timed by calling Fingerprint on
// each spec, and the daemon's solver-run count and ledger size.
func (b *sweepHits) layers(rec *recorder) (map[string]float64, error) {
	// Every cell is hit equally often, so the mean over cells is the mean
	// per operation.
	var build time.Duration
	for _, spec := range b.specs {
		d, err := fingerprintTime(spec)
		if err != nil {
			return nil, err
		}
		build += d
	}
	b.lt.build = build / time.Duration(len(b.specs)) * time.Duration(rec.attempted)
	var err error
	if b.lt.ledgerJobs, err = b.d.ledgerJobs(); err != nil {
		return nil, err
	}
	return b.lt.metrics(rec.attempted, 0), nil
}

// fingerprintTime is the median of five admission model builds of spec:
// the instance and the meta model, fingerprinted as the daemon does on
// every submission.
func fingerprintTime(spec serve.Spec) (time.Duration, error) {
	c := dpCase{topology: spec.Topology, pairs: spec.Pairs, seed: spec.Seed, threshold: spec.Threshold}
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		inst, err := c.instance()
		if err != nil {
			return 0, err
		}
		pr := &core.DPGapProblem{Inst: inst, Threshold: c.threshold, Input: core.InputConstraints{MaxDemand: maxDemand}}
		if _, err := pr.Fingerprint(milp.Options{DepthFirst: true, Workers: 1, WarmStart: true}); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDuration(ds), nil
}

func (b *sweepHits) close() error {
	var err error
	if b.d != nil {
		err = b.d.stop()
	}
	b.rt.close()
	return err
}

// specBudget is the budget a cell spec carries, as a duration.
func specBudget(s serve.Spec) time.Duration {
	return time.Duration(s.BudgetSec * float64(time.Second))
}
