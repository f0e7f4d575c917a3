package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blackbox"
	"repro/internal/mcf"
	"repro/internal/obs"
)

// The blackbox_pop instance: B4 with 12 demand pairs (demand seed 1), POP
// with 2 partitions averaged over 3 fixed random assignments (drawn from
// seed 8, the gapfinder convention of demand seed + 7), searched by
// Algorithm 1 with sigma = 10% of link capacity, patience K = 100 and a
// fixed number of restarts per operation.
const (
	popPairs       = 12
	popPartitions  = 2
	popAssignments = 3
	popRestarts    = 4
	// popRound is how many searches make one round. Their seeds are the
	// same in every run, 1..popRound; --seed orders them. With the pool
	// fixed, two runs do the same searches and differ only in order and
	// timing, not in how many evaluations their seeds happened to need.
	popRound = 10
)

type blackboxPOP struct {
	cfg         config
	inst        *mcf.Instance
	assignments [][]int
	rng         *rand.Rand
	lt          layerTotals
	lpBefore    map[string]float64
}

func newBlackboxPOP(cfg config) (bench, error) {
	inst, err := dpCase{topology: "b4", pairs: popPairs, seed: 1}.instance()
	if err != nil {
		return nil, err
	}
	arng := rand.New(rand.NewSource(8))
	assignments := make([][]int, popAssignments)
	for i := range assignments {
		assignments[i] = mcf.RandomAssignment(popPairs, popPartitions, arng)
	}
	b := &blackboxPOP{cfg: cfg, inst: inst, assignments: assignments, rng: rand.New(rand.NewSource(cfg.seed))}
	// Warm-up: one search on a seed outside the round's pool, untimed.
	if _, _, err := b.search(0, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.lt.evals = 0
	b.lpBefore = obs.Default.Snapshot()
	return b, nil
}

// search is one operation: a seeded hill climb against POP. Every
// evaluation is checked (OPT - POP can never be negative); bad counts the
// evaluations that were.
func (b *blackboxPOP) search(seed int64, timed bool) (res *blackbox.Result, bad int, err error) {
	inner := blackbox.POPGap(b.inst, b.assignments, popPartitions)
	gap := func(d []float64) (float64, error) {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		g, err := inner(d)
		if timed {
			b.lt.evalLat = append(b.lt.evalLat, time.Since(t0).Seconds())
		}
		b.lt.evals++
		if err == nil && g < 0 && !near(g, 0) {
			bad++
		}
		return g, err
	}
	res, err = blackbox.HillClimb(gap, popPairs, blackbox.Options{
		MaxDemand: maxDemand, Sigma: maxDemand / 10, K: 100, Restarts: popRestarts,
		Rng: rand.New(rand.NewSource(seed)), Workers: 1,
	})
	return res, bad, err
}

func (b *blackboxPOP) round(rec *recorder) (time.Duration, error) {
	var measured time.Duration
	for _, i := range b.rng.Perm(popRound) {
		t0 := time.Now()
		res, bad, err := b.search(int64(i+1), b.cfg.trace)
		d := time.Since(t0)
		measured += d
		if err != nil {
			rec.add(d, 0, err)
			continue
		}
		a := answer{demands: res.Demands, gap: res.Gap, modelGap: noClaim, bound: noClaim, opt: noClaim, heur: noClaim}
		plant(rec, &a)
		cerr := check(a, popPairs, popRepricer(b.inst, b.assignments, popPartitions), math.Inf(-1), noClaim)
		if cerr == nil && bad > 0 {
			cerr = wrong("%d evaluations had OPT - POP < 0", bad)
		}
		rec.add(d, a.gap, cerr)
	}
	return measured, nil
}

func (b *blackboxPOP) layers(rec *recorder) (map[string]float64, error) {
	after := obs.Default.Snapshot()
	b.lt.lpSolves = after["lp_solves_total"] - b.lpBefore["lp_solves_total"]
	b.lt.lpIters = after["lp_iterations_total"] - b.lpBefore["lp_iterations_total"]
	return b.lt.metrics(rec.attempted, 0), nil
}

func (b *blackboxPOP) close() error { return nil }
