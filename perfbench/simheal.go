package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/platform"
	"nwsenv/internal/query"
	"nwsenv/internal/reconcile"
	"nwsenv/internal/scenlab"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// healSpec follows scenarios/replication.json: a three-site grid with
// k=1 replication; two memory primaries chosen by the seed crash in
// turn while a reconcile loop repairs the deployment and a
// ForecastMany probe runs every tick.
var healSpec = scenlab.Spec{
	Name: "perfbench-heal",
	Topology: scenlab.TopologySpec{Kind: "grid", Grid: &scenlab.GridSpec{
		Sites: 3, SwitchesPerSite: 2, HostsPerSwitch: 2, SiteDomains: true}},
	Replication: 1,
	Phases:      scenlab.Phases{WarmupSec: 240, InjectSec: 900, RecoverySec: 480},
	Fault: scenlab.FaultSpec{Kind: "churn", Target: "memory", Victims: 2,
		StartSec: 60, SpacingSec: 420, HealAfterSec: 300},
}

const (
	// healVT is the number of distinct sub-seeds, each its own seeded
	// topology, the vt_* figures are averaged over: probe latency
	// differs between topologies, so a few would make the figure jump.
	healVT = 12
	// healExtraRounds bounds the reconcile rounds stepped after the
	// recovery phase while waiting for convergence.
	healExtraRounds = 10
)

func runSimHeal(seed int64, budget time.Duration, traced bool, minInst int) (*pass, error) {
	return runInstances(seed, budget, traced, minInst, healVT, runHeal)
}

// probePairs picks up to four measured pairs spread across the plan's
// memory servers, round-robin over servers in name order: the same
// choice scenlab makes, so every memory server's series are probed.
func probePairs(plan *deploy.Plan) [][2]string {
	pairs := plan.MeasuredPairs()
	if len(pairs) <= 4 {
		return pairs
	}
	byMem := map[string][][2]string{}
	var mems []string
	for _, p := range pairs {
		m := plan.MemoryOf[p[0]]
		if len(byMem[m]) == 0 {
			mems = append(mems, m)
		}
		byMem[m] = append(byMem[m], p)
	}
	sort.Strings(mems)
	var out [][2]string
	for i := 0; len(out) < 4; i++ {
		took := false
		for _, m := range mems {
			if i < len(byMem[m]) && len(out) < 4 {
				out = append(out, byMem[m][i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// runHeal deploys through Map -> Plan -> Apply, monitors, crashes the
// seeded victims, and steps the reconcile loop until it converges.
func runHeal(sub int64, traced bool) (*simInstance, error) {
	res := &simInstance{layer: map[string]float64{}}
	spec := healSpec
	w0 := time.Now()
	tp, runs, err := spec.Topology.Build(sub)
	if err != nil {
		return nil, err
	}
	sim := vclock.New()
	clk := &simClock{sim: sim}
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)
	sp := platform.NewSimPlatform(net, tr)
	var plat platform.Platform = sp
	if traced {
		res.t = NewTracer(sim.Now)
		plat = &tracePlatform{SimPlatform: sp, tr: newTraceTransport(tr, res.t)}
	}
	// Telemetry wired as scenlab and nwsmanager -telemetry wire it.
	reg := telemetry.New(sim.Now)
	simnet.RegisterTelemetry(reg, net)
	tr.SetTelemetry(reg)
	pl := core.NewPipeline(plat, core.WithAutoAliases(), core.WithTokenGap(time.Second),
		core.WithTelemetry(reg), core.WithReplication(spec.Replication))
	procs0 := sim.Processes()

	// Map -> Plan -> Apply, timed stage by stage: Map in virtual time;
	// Plan (pure computation) and Apply (which takes no virtual time) in
	// wall time.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var m *core.Mapping
	var pr *core.PlanResult
	var dep *deploy.Deployment
	var pipeErr error
	deployed := false
	sim.Go("pipeline", func() {
		defer func() { deployed = true }()
		v0 := sim.Now()
		if m, pipeErr = pl.Map(ctx, runs...); pipeErr != nil {
			return
		}
		res.layer["env.map_s"] = (sim.Now() - v0).Seconds()
		_, probes := net.ProbeTraffic()
		res.layer["env.probes"] = float64(probes)
		p0 := time.Now()
		if pr, pipeErr = pl.Plan(m); pipeErr != nil {
			return
		}
		res.layer["deploy.plan_ms"] = ms(time.Since(p0))
		a0 := time.Now()
		dep, pipeErr = pl.Apply(ctx, pr)
		res.layer["deploy.apply_ms"] = ms(time.Since(a0))
	})
	if err := clk.drive(time.Minute, 240*time.Hour, func() bool { return deployed }); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if pipeErr != nil {
		return nil, fmt.Errorf("deploy: %w", pipeErr)
	}
	res.setup = time.Since(w0)

	base := sim.Now()
	victims, links := scenlab.PlanVictimsFor(spec.Fault, pr.Plan, m.Resolve, tp)
	scen, err := spec.Fault.Compile(sub, base+spec.Phases.Warmup(), victims, links)
	if err != nil {
		return nil, err
	}
	scenRun := scen.Schedule(net)

	meter := startMeter()
	wall0 := clk.wall
	settles0 := net.SettleCount()
	hits0, misses0 := net.RouteCacheStats()
	if traced {
		res.t.reset()
	}

	// The reconcile loop, stepped here so each Step is timed.
	rec := reconcile.New(pl, dep, reconcile.Config{Runs: runs, Interval: spec.ReconcileEvery()})
	var steps []float64
	loopDone := false
	sim.Go("reconcile", func() {
		defer func() { loopDone = true }()
		for ctx.Err() == nil {
			sim.Sleep(spec.ReconcileEvery())
			if ctx.Err() != nil {
				return
			}
			v0 := sim.Now()
			rec.Step(ctx)
			steps = append(steps, ms(sim.Now()-v0))
		}
	})

	probeSeq := 0
	probe := func() error {
		d := rec.Deployment()
		master := d.Agents[d.Plan.Master]
		if master == nil {
			return nil
		}
		var reqs []proto.SeriesRequest
		for _, p := range probePairs(d.Plan) {
			reqs = append(reqs, proto.SeriesRequest{Series: sensor.LatencySeries(d.Resolve[p[0]], d.Resolve[p[1]])})
		}
		probeSeq++
		res.attempted++
		landed := false
		sim.Go(fmt.Sprintf("probe-%d", probeSeq), func() {
			defer func() { landed = true }()
			v0 := sim.Now()
			qc := d.QueryClient(master.Station())
			n := 0
			for _, r := range qc.ForecastMany(reqs) {
				// A degraded (replica-served) prediction is an answer.
				if (r.Err == nil || errors.Is(r.Err, query.ErrDegraded)) && r.Prediction.N > 0 {
					n++
				}
			}
			res.series += n
			// Only fully answered probes are timed; the others count
			// against answered_ratio.
			if n == len(reqs) {
				res.answered++
				res.lat.Add(ms(sim.Now() - v0))
			}
		})
		if err := clk.drive(10*time.Second, 4*time.Minute, func() bool { return landed }); err != nil {
			return fmt.Errorf("probe %d: %w", probeSeq, err)
		}
		return nil
	}
	end := base + spec.Phases.Warmup() + spec.Phases.Inject() + spec.Phases.Recovery()
	for tick := base + spec.SampleEvery(); tick <= end; tick += spec.SampleEvery() {
		if err := clk.advance(tick); err != nil {
			return nil, err
		}
		if err := probe(); err != nil {
			return nil, err
		}
	}
	converged := func() bool {
		rounds := rec.Rounds()
		last := len(rounds) - 1
		return last >= 0 && rounds[last].Err == nil && !rounds[last].Drifted()
	}
	for i := 0; i < healExtraRounds && !converged(); i++ {
		if err := clk.advance(sim.Now() + spec.ReconcileEvery()); err != nil {
			return nil, err
		}
	}
	res.run = meter.stop()
	res.simWall = clk.wall - wall0
	res.vs = (sim.Now() - base).Seconds()
	res.settles = net.SettleCount() - settles0
	hits, misses := net.RouteCacheStats()
	res.routeHits, res.routeMisses = hits-hits0, misses-misses0
	res.pendingMax = clk.pendingMax
	if traced {
		res.t.halt()
	}

	rounds := rec.Rounds()
	if !converged() {
		res.problems = append(res.problems, "reconcile loop did not converge")
	}
	if !deploy.ValidateConnectivity(rec.Deployment().Plan).Complete {
		res.problems = append(res.problems, "final plan incomplete")
	}
	injected := scenRun.Injected()
	if len(injected) == 0 {
		res.problems = append(res.problems, "no fault injected")
	}
	report := rec.RecoveryReport(injected)
	// rounds_to_converge: rounds from each fault to the first clean
	// round after it has been repaired; the worst fault counts.
	worst := 0
	for _, f := range injected {
		n := 0
		for _, rd := range rounds {
			if rd.Started < f.At {
				continue
			}
			n++
			if n > 1 && rd.Err == nil && !rd.Drifted() {
				break
			}
		}
		if n > worst {
			worst = n
		}
	}
	var deltas []float64
	for _, s := range reg.Spans() {
		if s.Subsystem == "reconcile" && s.Name == "apply_delta" {
			deltas = append(deltas, ms(s.End-s.Start))
		}
	}
	res.layer["deploy.apply_delta_ms"] = Median(deltas)
	res.layer["reconcile.step_ms"] = Median(steps)
	res.layer["reconcile.rounds_to_converge"] = float64(worst)
	res.layer["reconcile.redeploy_fraction"] = report.MaxRedeployFraction
	if res.answered > 0 {
		res.vt = []float64{float64(res.series) / res.vs, res.lat.Q(0.75), res.lat.Q(0.50),
			report.MaxTimeToRepair.Seconds(), res.lat.Q(0.99), float64(res.series), float64(worst)}
	}

	// Wind down: stop the loop, stop the deployment, and check that every
	// simulation process it started has exited.
	cancel()
	if err := clk.drive(time.Second, spec.ReconcileEvery()+time.Minute, func() bool { return loopDone }); err != nil {
		return nil, fmt.Errorf("reconcile loop did not stop: %w", err)
	}
	rec.Deployment().Stop()
	if err := sim.RunUntil(sim.Now() + simDrain); err != nil {
		return nil, err
	}
	res.procsEnd = sim.Processes()
	if res.procsEnd != procs0 {
		res.problems = append(res.problems, fmt.Sprintf("%d simulation processes alive after Stop, %d before deploy", res.procsEnd, procs0))
	}
	return res, nil
}
