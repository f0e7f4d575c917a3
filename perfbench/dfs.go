package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
)

// dfsCases are the dfs_prove instances: the smoke instance (B4, threshold
// 5, 4 pairs from demand seed 5: gap 5 proved at 2023 nodes), the paper's
// Figure 1 instance (gap exactly 100) and three 3-pair B4 instances with
// nonzero proved gaps.
var dfsCases = []dpCase{
	{topology: "b4", pairs: 4, seed: 5, threshold: 5, exact: noClaim},
	{topology: "figure1", pairs: -1, seed: 1, threshold: 50, exact: 100},
	{topology: "b4", pairs: 3, seed: 5, threshold: 5, exact: noClaim},
	{topology: "b4", pairs: 3, seed: 7, threshold: 10, exact: noClaim},
	{topology: "b4", pairs: 3, seed: 9, threshold: 20, exact: noClaim},
}

// dpProblem is a built instance with the gap a hill climb found on it.
type dpProblem struct {
	c     dpCase
	inst  *mcf.Instance
	lower float64
}

// buildDPProblems builds every case and runs its hill-climb cross-check.
func buildDPProblems(cases []dpCase, seed int64) ([]*dpProblem, error) {
	out := make([]*dpProblem, len(cases))
	for i, c := range cases {
		inst, err := c.instance()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		lower, err := hillClimbLower(inst, c.threshold, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%v: hill climb: %w", c, err)
		}
		out[i] = &dpProblem{c: c, inst: inst, lower: lower}
	}
	return out, nil
}

// dfsRound lists the cases of one round by index into dfsCases. Each
// 3-pair case runs three times, so the round's median operation is the
// middle run of the seed-9 case whatever the order, and the smoke search
// is less than three quarters of the round.
var dfsRound = []int{0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4}

type dfsProve struct {
	cfg   config
	probs []*dpProblem
	rng   *rand.Rand
	lt    layerTotals
	clock lpClock // lpClock when measuring began
}

func newDFSProve(cfg config) (bench, error) {
	probs, err := buildDPProblems(dfsCases, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &dfsProve{cfg: cfg, probs: probs, rng: rand.New(rand.NewSource(cfg.seed))}
	// Warm-up: the Figure 1 search, untimed.
	if _, err := b.search(probs[1], nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.clock = readLPClock()
	return b, nil
}

// search is one operation: a depth-first, warm-started DP gap search on
// one wave worker, run to proved optimality.
func (b *dfsProve) search(p *dpProblem, tr *obs.Tracer) (*core.Result, error) {
	pr := &core.DPGapProblem{Inst: p.inst, Threshold: p.c.threshold, Input: core.InputConstraints{MaxDemand: maxDemand}}
	res, err := pr.Solve(milp.Options{DepthFirst: true, WarmStart: true, Workers: 1, Tracer: tr})
	if err != nil {
		return nil, err
	}
	if res.Solver.Status != milp.StatusOptimal {
		return nil, fmt.Errorf("%v: status %v, want optimal", p.c, res.Solver.Status)
	}
	return res, nil
}

func (b *dfsProve) round(rec *recorder) (time.Duration, error) {
	var measured time.Duration
	for _, j := range b.rng.Perm(len(dfsRound)) {
		p := b.probs[dfsRound[j]]
		var tr *obs.Tracer
		if b.cfg.trace {
			tr = obs.NewTracer(&b.lt.sink)
		}
		t0 := time.Now()
		res, err := b.search(p, tr)
		d := time.Since(t0)
		measured += d
		if err != nil {
			rec.add(d, 0, err)
			continue
		}
		b.lt.addSearch(res)
		a := answer{
			demands: res.Demands, gap: res.Gap, modelGap: res.ModelGap,
			bound: res.Solver.Bound, opt: res.OptValue, heur: res.HeurValue,
		}
		plant(rec, &a)
		rec.add(d, a.gap, check(a, p.inst.Demands.Len(), dpRepricer(p.inst, p.c.threshold), p.lower, p.c.exact))
	}
	return measured, nil
}

func (b *dfsProve) layers(rec *recorder) (map[string]float64, error) {
	b.lt.addLPClock(b.clock)
	return b.lt.metrics(rec.attempted, rec.attempted), nil
}

func (b *dfsProve) close() error { return nil }
