package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/blackbox"
	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/serve"
	"repro/internal/topology"
)

// maxDemand bounds every demand in every workload (the links have capacity
// 100, and the paper bounds demands by link capacity).
const maxDemand = 100.0

// dpCase is one DP gap-search instance: the demand support drawn the way
// the daemon draws it, so an in-process search and a daemon job of the
// same case solve the same model.
type dpCase struct {
	topology  string
	pairs     int   // demand-support size; -1 takes every reachable pair
	seed      int64 // demand-support seed
	threshold float64
	// exact is the gap the paper fixes for this instance, or NaN.
	exact float64
}

func (c dpCase) String() string {
	return fmt.Sprintf("%s/pairs=%d/seed=%d/thr=%g", c.topology, c.pairs, c.seed, c.threshold)
}

func (c dpCase) instance() (*mcf.Instance, error) {
	g, err := topology.ByName(c.topology)
	if err != nil {
		return nil, err
	}
	set := demand.ReachablePairs(g)
	if c.pairs >= 0 {
		set = demand.RandomPairs(g, c.pairs, rand.New(rand.NewSource(c.seed)))
	}
	return mcf.NewInstance(g, set, 2)
}

// spec is the case as a daemon job: depth-first with warm starts on one
// wave worker, and a budget far above any of these cells' solve times so
// every cell is proved optimal.
func (c dpCase) spec() serve.Spec {
	return serve.Spec{
		Topology: c.topology, Heuristic: "dp", Pairs: c.pairs, Paths: 2,
		Seed: c.seed, Threshold: c.threshold, MaxDemand: maxDemand,
		BudgetSec: 300, WarmStart: true, Workers: 1,
	}
}

// answer is a reported gap with what it claims about itself. Absent claims
// are NaN.
type answer struct {
	demands  []float64
	gap      float64
	modelGap float64 // the meta model's own value
	bound    float64 // proved upper bound on the gap
	opt      float64 // reported OPT value
	heur     float64 // reported heuristic value
}

// repricer computes OPT and the heuristic's value at a demand vector with
// one-shot LPs, a code path apart from the KKT meta model.
type repricer func(d []float64) (opt, heur float64, err error)

func dpRepricer(inst *mcf.Instance, threshold float64) repricer {
	return func(d []float64) (float64, float64, error) {
		at := inst.WithVolumes(d)
		opt, err := mcf.SolveMaxFlow(at)
		if err != nil {
			return 0, 0, err
		}
		dp, err := mcf.SolveDemandPinning(at, threshold)
		if err != nil {
			return 0, 0, err
		}
		return opt.Total, dp.Total, nil
	}
}

// popRepricer averages POP over the fixed assignments, as the black-box
// gap function does.
func popRepricer(inst *mcf.Instance, assignments [][]int, partitions int) repricer {
	return func(d []float64) (float64, float64, error) {
		at := inst.WithVolumes(d)
		opt, err := mcf.SolveMaxFlow(at)
		if err != nil {
			return 0, 0, err
		}
		clients := make([]mcf.Client, len(d))
		for k := range d {
			clients[k] = mcf.Client{Demand: k, Volume: d[k]}
		}
		sum := 0.0
		for _, a := range assignments {
			f, err := mcf.SolvePOPAssigned(at, clients, a, partitions)
			if err != nil {
				return 0, 0, err
			}
			sum += f.Total
		}
		return opt.Total, sum / float64(len(assignments)), nil
	}
}

// near reports whether a and b agree to solver tolerance.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// check validates an answer: every demand in [0, maxDemand], the gap equal
// to the re-priced one and to every value the answer claims, the proved
// bound not below the gap, the gap not below lower (a gap sampling found
// on the same instance) and equal to exact when exact is not NaN. Any
// disagreement is a *mismatch.
func check(a answer, n int, price repricer, lower, exact float64) error {
	if len(a.demands) != n {
		return wrong("%d demands for %d pairs", len(a.demands), n)
	}
	for k, d := range a.demands {
		if !(d >= 0 && d <= maxDemand) {
			return wrong("demand %d = %v outside [0, %v]", k, d, maxDemand)
		}
	}
	opt, heur, err := price(a.demands)
	if err != nil {
		return wrong("re-pricing the returned demands: %v", err)
	}
	if !near(opt-heur, a.gap) {
		return wrong("gap %v, re-priced %v (OPT %v - heuristic %v)", a.gap, opt-heur, opt, heur)
	}
	if !math.IsNaN(a.modelGap) && !near(a.modelGap, a.gap) {
		return wrong("meta-model gap %v != verified gap %v", a.modelGap, a.gap)
	}
	if !math.IsNaN(a.opt) && !math.IsNaN(a.heur) && !near(a.opt-a.heur, a.gap) {
		return wrong("reported OPT %v - heuristic %v != gap %v", a.opt, a.heur, a.gap)
	}
	if !math.IsNaN(a.bound) && a.bound < a.gap && !near(a.bound, a.gap) {
		return wrong("bound %v below gap %v", a.bound, a.gap)
	}
	if a.gap < lower && !near(a.gap, lower) {
		return wrong("proved optimum %v below the gap %v a hill climb found", a.gap, lower)
	}
	if !math.IsNaN(exact) && !near(a.gap, exact) {
		return wrong("gap %v, the paper's instance has %v", a.gap, exact)
	}
	return nil
}

// plant corrupts an answer the way --plant asks, so a run can show that
// the checks catch a wrong gap or an out-of-box demand.
func plant(rec *recorder, a *answer) {
	if rec.plantOnce("gap") {
		a.gap++
	}
	if rec.plantOnce("demand") && len(a.demands) > 0 {
		a.demands[0] = maxDemand + 1
	}
}

// hillClimbLower is a short seeded hill climb (Algorithm 1) on the DP gap:
// sampling gives a lower bound on the true maximum, so a proved optimum
// below it is wrong.
func hillClimbLower(inst *mcf.Instance, threshold float64, seed int64) (float64, error) {
	res, err := blackbox.HillClimb(blackbox.DPGap(inst, threshold), inst.Demands.Len(), blackbox.Options{
		MaxDemand: maxDemand, Sigma: maxDemand / 10, K: 20, Restarts: 2,
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return 0, err
	}
	return res.Gap, nil
}

// noClaim is the NaN an answer carries for a claim it does not make.
var noClaim = math.NaN()
