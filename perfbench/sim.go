package main

import (
	"fmt"
	"time"

	"nwsenv/internal/vclock"
)

// simClock advances a simulation from outside it and accounts the wall
// time spent inside RunUntil.
type simClock struct {
	sim        *vclock.Sim
	wall       time.Duration
	pendingMax int
}

func (c *simClock) advance(to time.Duration) error {
	if to <= c.sim.Now() {
		return nil
	}
	t0 := time.Now()
	err := c.sim.RunUntil(to)
	c.wall += time.Since(t0)
	if n := c.sim.PendingEvents(); n > c.pendingMax {
		c.pendingMax = n
	}
	return err
}

// drive advances virtual time in steps until done reports true, failing
// after limit of virtual time.
func (c *simClock) drive(step, limit time.Duration, done func() bool) error {
	deadline := c.sim.Now() + limit
	for at := c.sim.Now() + step; !done(); at += step {
		if at > deadline {
			return fmt.Errorf("simulation stuck after %v of virtual time", limit)
		}
		if err := c.advance(at); err != nil {
			return err
		}
	}
	return nil
}

// run executes fn as a simulation process and drives until it returns.
func (c *simClock) run(fn func()) error {
	done := false
	c.sim.Go("perfbench", func() { fn(); done = true })
	return c.drive(time.Second, time.Hour, func() bool { return done })
}

// simInstance is one simulated deployment, built, loaded and torn down.
type simInstance struct {
	setup               time.Duration // wall: empty process to serving deployment
	lat                 Dist          // virtual ms per answered batch, issue to answer
	attempted, answered int           // query operations
	series              int           // answered series
	vs                  float64       // virtual seconds measured
	simWall             time.Duration // wall spent simulating them
	run                 reading       // CPU and heap over the measured phase
	// vt are the virtual-time results: vt[0..4] are vt_queries_per_s,
	// the batch p75 and p50 in virtual ms, vt_recovery_s and the batch
	// p99; any further entries are other simulated outcomes that must
	// repeat exactly.
	vt                     []float64
	pendingMax, procsEnd   int
	settles                int64
	routeHits, routeMisses int64
	// layer holds workload-specific per-layer observations; the pass
	// reports the median over instances.
	layer    map[string]float64
	problems []string
	bad      error // first wrong answer
	t        *Tracer
}

// runInstances repeats instances until budget is spent, cycling through
// distinct sub-seeds derived from seed, and folds them into a pass.
// Wall-clock metrics are medians over instances, each scaled by the
// reference units around it (calib.go), so a transient stall moves one
// instance rather than the run and the host's drift cancels.
// Virtual-time metrics are means over the first distinct sub-seeds (all
// of them when minInst is fullVT); an instance repeating a sub-seed must
// reproduce its vt.
func runInstances(seed int64, budget time.Duration, traced bool, minInst, distinct int,
	one func(sub int64, traced bool) (*simInstance, error)) (*pass, error) {
	if minInst == fullVT {
		minInst = distinct
	}
	p := newPass()
	if traced {
		p.layers = newLayers()
	}
	var firsts []*simInstance
	var setup, qps, cpu, simvs, runUntil, cost []float64
	var rawSetup, rawQPS, rawCPU, rawSimVS []float64
	var total reading
	var vs float64
	var series int
	var settles, hits, misses int64
	layer := map[string][]float64{}
	var cal calib
	t0 := time.Now()
	cal.open()
	for i := 0; i < minInst || time.Since(t0) < budget; i++ {
		sub := seed*7919 + int64(i%distinct)
		r, err := one(sub, traced)
		if err != nil {
			return nil, fmt.Errorf("instance %d (sub-seed %d): %w", i, sub, err)
		}
		scale := cal.close()
		if r.answered == 0 {
			return nil, fmt.Errorf("instance %d (sub-seed %d) answered nothing", i, sub)
		}
		if r.bad != nil {
			p.problem("wrong answer: %v", r.bad)
		}
		for _, pr := range r.problems {
			p.problem("sub-seed %d: %s", sub, pr)
		}
		if i < distinct {
			firsts = append(firsts, r)
			p.vt = append(p.vt, r.vt)
		} else if f := firsts[i%distinct]; !sameFloats(f.vt, r.vt) {
			p.problem("sub-seed %d not deterministic: vt %v, then %v", sub, f.vt, r.vt)
		}
		p.attempted += r.attempted
		p.failed += r.attempted - r.answered
		rawSetup = append(rawSetup, r.setup.Seconds())
		rawQPS = append(rawQPS, float64(r.series)/r.simWall.Seconds())
		rawCPU = append(rawCPU, us(r.run.cpu)/float64(r.series))
		rawSimVS = append(rawSimVS, r.vs/r.simWall.Seconds())
		setup = append(setup, rawSetup[i]*scale)
		qps = append(qps, rawQPS[i]/scale)
		cpu = append(cpu, rawCPU[i]*scale)
		simvs = append(simvs, rawSimVS[i]/scale)
		runUntil = append(runUntil, ms(r.simWall)/r.vs)
		cost = append(cost, runUntil[i]*scale)
		total.add(r.run)
		vs += r.vs
		series += r.series
		settles += r.settles
		hits += r.routeHits
		misses += r.routeMisses
		if float64(r.pendingMax) > p.layer["vclock.pending_events_max"] {
			p.layer["vclock.pending_events_max"] = float64(r.pendingMax)
		}
		p.layer["vclock.processes_end"] = float64(r.procsEnd)
		for k, v := range r.layer {
			layer[k] = append(layer[k], v)
		}
		if traced {
			p.layers.absorb(r.t, r.attempted)
			if p.spans == nil {
				p.spans = r.t
			}
		}
	}
	vtMean := func(col int) float64 {
		var sum float64
		for _, f := range firsts {
			sum += f.vt[col]
		}
		return sum / float64(len(firsts))
	}
	// The batch latency a simulated user sees is virtual time.
	p.e2e["setup_s"] = Median(setup)
	p.e2e["query_p50_ms"] = vtMean(2)
	p.e2e["query_p75_ms"] = vtMean(1)
	p.e2e["query_per_s"] = Median(qps)
	p.e2e["cpu_us_per_query"] = Median(cpu)
	p.e2e["sim_vs_per_wall_s"] = Median(simvs)
	p.e2e["vt_queries_per_s"] = vtMean(0)
	p.e2e["vt_recovery_s"] = vtMean(3)
	p.e2e["answered_ratio"] = 1 - ratio(float64(p.failed), float64(p.attempted))
	p.e2e["peak_rss_mb"] = peakRSSMB()
	p.cost = Median(cost)
	p.note("%d instances over %d distinct sub-seeds; %d operations, %d answered", len(setup), len(firsts), p.attempted, p.attempted-p.failed)
	p.note("reference unit ms: median %.4g over %d (nominal %v); unscaled: setup_s %.6g query_per_s %.6g cpu_us_per_query %.6g sim_vs_per_wall_s %.6g",
		Median(cal.refs), len(cal.refs), refNominal, Median(rawSetup), Median(rawQPS), Median(rawCPU), Median(rawSimVS))

	p.layer["bench.query_p99_ms"] = vtMean(4)
	p.layer["vclock.run_until_ms_per_vs"] = Median(runUntil)
	p.layer["simnet.settles_per_vs"] = float64(settles) / vs
	p.layer["simnet.route_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	p.layer["go.alloc_bytes_per_query"] = total.allocBytes / float64(series)
	p.layer["go.allocs_per_query"] = total.allocs / float64(series)
	p.layer["go.gc_cpu_fraction"] = total.gcCPUFraction
	for k, v := range layer {
		p.layer[k] = Median(v)
	}
	return p, nil
}
