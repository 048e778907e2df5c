package main

import (
	"fmt"
	"math/rand"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// sim-storm: the BenchmarkGatewayScale/gw=3 shape on a 100-host grid.
const (
	stormSeries  = 100
	stormSamples = 4
	stormBatch   = 20
	stormLength  = 20 * time.Second
	stormEvery   = 2 * time.Millisecond
	// stormAdmitLimit/stormShedAt are the gateway bench's admission
	// settings: a small window so the storm saturates the edge.
	stormAdmitLimit = 4
	stormShedAt     = 16
	// stormVT is the number of distinct sub-seeds the vt_* medians are
	// taken over.
	stormVT = 3
	// simDrain is how long a simulation runs on after teardown, past a
	// full registration-refresh period, so every KeepRegistered loop has
	// woken, seen its station closed and exited.
	simDrain = 12 * time.Minute
)

// stormGrid is the gateway bench's 100-host grid. Its topology stays
// fixed: the seed varies the stored series, their owners, values and
// the batches drawn, not the edge's capacity.
var stormGrid = topo.GridConfig{Sites: 2, SwitchesPerSite: 5, HostsPerSwitch: 10, Seed: 42}

// stormGateways places the replicas on distinct switches, clear of the
// stack's own hosts (h0-0-*, h*-0-1).
var stormGateways = []string{"h0-1-0", "h1-1-0", "h0-2-0"}

func runSimStorm(seed int64, budget time.Duration, traced bool, minInst int) (*pass, error) {
	return runInstances(seed, budget, traced, minInst, stormVT, runStorm)
}

// runStorm builds the stack, seeds it, and drives one open-loop storm.
func runStorm(sub int64, traced bool) (*simInstance, error) {
	res := &simInstance{}
	t0 := time.Now()
	cfg := stormGrid
	tp, _ := topo.SyntheticGrid(cfg)
	sim := vclock.New()
	clk := &simClock{sim: sim}
	net := simnet.NewNetwork(sim, tp)
	var x proto.Transport = proto.NewSimTransport(net)
	if traced {
		res.t = NewTracer(sim.Now)
		x = newTraceTransport(x, res.t)
	}
	rt := x.Runtime()
	var ports []proto.Port
	open := func(h string) (proto.Port, error) {
		ep, err := x.Open(h)
		if err != nil {
			return nil, err
		}
		var p proto.Port = proto.NewStation(rt, ep)
		if traced {
			p = &tracePort{Port: p, t: res.t}
		}
		ports = append(ports, p)
		return p, nil
	}
	const nsHost = "h0-0-0"
	nsp, err := open(nsHost)
	if err != nil {
		return nil, err
	}
	rt.Go("ns", nameserver.New(nsp).Run)
	var mems []string
	for s := 0; s < cfg.Sites; s++ {
		h := fmt.Sprintf("h%d-0-1", s)
		mems = append(mems, h)
		p, err := open(h)
		if err != nil {
			return nil, err
		}
		rt.Go("mem:"+h, memory.New(p, nameserver.NewClient(p, nsHost)).Run)
	}
	fcp, err := open("h0-0-2")
	if err != nil {
		return nil, err
	}
	rt.Go("fc", forecast.NewServer(fcp, nameserver.NewClient(fcp, nsHost), 0).Run)
	client, err := open("h0-0-3")
	if err != nil {
		return nil, err
	}
	for _, h := range stormGateways {
		p, err := open(h)
		if err != nil {
			return nil, err
		}
		g := gateway.New(p, nsHost)
		g.SetAdmission(stormAdmitLimit, stormShedAt)
		rt.Go("gw:"+h, g.Run)
	}

	in := makeInputs(sub, stormSeries, cfg.Sites, "cpu")
	var gwc *gateway.Client
	var setupErr error
	if err := clk.run(func() {
		for i, name := range in.names {
			if err := memory.NewClient(client, mems[in.owner[i]]).Store(name, in.samples(i, 0, stormSamples)...); err != nil {
				setupErr = fmt.Errorf("seed %s: %w", name, err)
				return
			}
		}
		// Let the replicas' directory registrations land first.
		rt.Sleep(2 * time.Second)
		c, err := gateway.Connect(client, nsHost)
		if err != nil {
			setupErr = fmt.Errorf("connect: %w", err)
			return
		}
		if got := len(c.Hosts()); got != len(stormGateways) {
			setupErr = fmt.Errorf("discovered %d gateway replicas, want %d", got, len(stormGateways))
			return
		}
		gwc = c
	}); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}
	res.setup = time.Since(t0)
	if traced {
		res.t.reset()
	}

	// The open-loop storm: one batch every stormEvery of virtual time,
	// completions never pace the next send.
	inflight := 0
	injectDone := false
	var lastInjected, lastDone time.Duration
	rng := rand.New(rand.NewSource(sub))
	settles0 := net.SettleCount()
	hits0, misses0 := net.RouteCacheStats()
	m := startMeter()
	wall0 := clk.wall
	start := sim.Now()
	rt.Go("inject", func() {
		for seq := 0; sim.Now()-start < stormLength; seq++ {
			reqs := in.batch(rng, stormBatch, 1)
			inflight++
			res.attempted++
			lastInjected = sim.Now()
			rt.Go(fmt.Sprintf("batch-%d", seq), func() {
				defer func() { inflight-- }()
				v0 := sim.Now()
				out, err := gwc.FetchMany(reqs)
				if err != nil {
					return // shed by every replica, or failed: not answered
				}
				for _, r := range out {
					if r.Err != nil {
						return
					}
					if cerr := in.check(r.Series, r.Samples, 1); cerr != nil && res.bad == nil {
						res.bad = cerr
					}
				}
				res.answered++
				res.series += len(out)
				lastDone = sim.Now()
				res.lat.Add(ms(lastDone - v0))
			})
			rt.Sleep(stormEvery)
		}
		injectDone = true
	})
	if err := clk.drive(time.Second, stormLength+time.Hour, func() bool { return injectDone && inflight == 0 }); err != nil {
		return nil, err
	}
	res.run = m.stop()
	res.simWall = clk.wall - wall0
	res.vs = (sim.Now() - start).Seconds()
	res.settles = net.SettleCount() - settles0
	hits, misses := net.RouteCacheStats()
	res.routeHits, res.routeMisses = hits-hits0, misses-misses0
	res.pendingMax = clk.pendingMax
	if res.answered > 0 {
		// Recovery: the storm's backlog drains after the last injection.
		res.vt = []float64{float64(res.series) / (lastDone - start).Seconds(), res.lat.Q(0.75), res.lat.Q(0.50),
			(lastDone - lastInjected).Seconds(), res.lat.Q(0.99)}
	}

	if traced {
		res.t.halt()
	}
	for _, p := range ports {
		p.Close()
	}
	if err := sim.RunUntil(sim.Now() + simDrain); err != nil {
		return nil, err
	}
	res.procsEnd = sim.Processes()
	return res, nil
}
