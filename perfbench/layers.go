package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// layerSink is the benchmark's own obs.Sink on a search's Tracer. It counts
// polish outcomes and LP solve events.
type layerSink struct {
	mu           sync.Mutex
	lpEvents     int
	polishAccept int
	polishReject int
}

func (s *layerSink) Emit(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.KindLPSolveEnd:
		s.lpEvents++
	case obs.KindPolishAccept:
		s.polishAccept++
	case obs.KindPolishReject:
		s.polishReject++
	}
}

// lpClock reads the process-wide time totals the lp and milp packages
// publish on obs.Default: bnb_wave_seconds (one wave is one node's LP
// relaxation plus its polish, with one wave worker and batch 1) and the
// timed simplex phases (phase 1, phase 2, warm repair) of every LP in the
// process, polish and verification LPs included.
type lpClock struct{ wave, pivot float64 }

func readLPClock() lpClock {
	s := obs.Default.Snapshot()
	return lpClock{
		wave:  s["bnb_wave_seconds_sum"],
		pivot: s["lp_phase1_seconds_sum"] + s["lp_phase2_seconds_sum"] + s["lp_warm_repair_seconds_sum"],
	}
}

// addLPClock adds the time the clock advanced since before to the totals.
func (t *layerTotals) addLPClock(before lpClock) {
	after := readLPClock()
	t.waveTime += after.wave - before.wave
	t.pivotTime += after.pivot - before.pivot
}

// layerTotals sums what the traced run observed at each layer boundary.
// Metrics a workload does not reach stay 0.
type layerTotals struct {
	lpSolves, lpIters         float64
	warmSolves, warmFallbacks float64
	nodes                     float64
	solve, build, verify      time.Duration
	waveTime, pivotTime       float64 // seconds, from lpClock
	sink                      layerSink
	evals                     int
	evalLat                   []float64
	ckptWrites                int
	ckptOverhead              time.Duration
	ckptSolves                int
	submitLat, serviceLat     []float64
	ledgerJobs, solverRuns    float64
	polls, retries            int
}

// addSearch adds one in-process gap search's counters and phase times.
func (t *layerTotals) addSearch(res *core.Result) {
	s := res.Solver
	t.lpSolves += float64(s.LPSolves)
	t.lpIters += float64(s.LPIters)
	t.warmSolves += float64(s.WarmLPSolves)
	t.warmFallbacks += float64(s.WarmLPFallbacks)
	t.nodes += float64(s.Nodes)
	t.solve += res.Timings.Solve
	t.build += res.Timings.Build
	t.verify += res.Timings.Verify
}

// metrics divides the totals by the operation count. The node-LP times
// and the self time of the search are only as complete as the searches
// lpClock bracketed: spanOps is how many operations those were.
func (t *layerTotals) metrics(ops, spanOps int) map[string]float64 {
	n := float64(ops)
	sn := float64(spanOps)
	polish := float64(t.sink.polishAccept + t.sink.polishReject)
	overhead := 0.0
	if t.ckptSolves > 0 {
		overhead = t.ckptOverhead.Seconds() / float64(t.ckptSolves)
	}
	self := 0.0
	if spanOps > 0 {
		self = (t.solve.Seconds() - t.waveTime) / sn
	}
	return map[string]float64{
		"lp.solves_per_op":             ratio(t.lpSolves, n),
		"lp.iters_per_op":              ratio(t.lpIters, n),
		"lp.solve_s_per_op":            ratio(t.waveTime, sn),
		"lp.s_per_solve":               ratio(t.waveTime, float64(t.sink.lpEvents)),
		"lp.phases_s_per_op":           ratio(t.pivotTime, sn),
		"lp.warm_fallback_ratio":       ratio(t.warmFallbacks, t.warmSolves+t.warmFallbacks),
		"milp.nodes_per_op":            ratio(t.nodes, n),
		"milp.self_s_per_op":           self,
		"core.build_s_per_op":          ratio(t.build.Seconds(), n),
		"core.verify_s_per_op":         ratio(t.verify.Seconds(), n),
		"core.polish_per_op":           ratio(polish, sn),
		"core.polish_accept_ratio":     ratio(float64(t.sink.polishAccept), polish),
		"mcf.evals_per_op":             ratio(float64(t.evals), n),
		"mcf.eval_s.p50":               median(t.evalLat),
		"checkpoint.writes_per_op":     ratio(float64(t.ckptWrites), n),
		"checkpoint.overhead_s_per_op": overhead,
		"serve.submit_s.p50":           median(t.submitLat),
		"serve.service_s.p50":          median(t.serviceLat),
		"serve.ledger_jobs":            t.ledgerJobs,
		"serve.solver_runs_per_op":     ratio(t.solverRuns, n),
		"sweep.polls_per_op":           ratio(float64(t.polls), n),
		"sweep.retries":                float64(t.retries),
	}
}
