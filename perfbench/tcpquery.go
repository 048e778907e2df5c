package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
)

// tcp-query: a name server, two memory servers and one gateway at
// default admission on real loopback TCP, queried from this process.
const (
	tcpSeries     = 200
	tcpSamples    = 32 // samples seeded per series
	tcpBatch      = 20 // series per FetchMany batch
	tcpCount      = 4  // newest samples asked per series
	tcpSetups     = 9  // stacks built per pass; setup_s is their median
	tcpWriteEvery = 5 * time.Millisecond
	// tcpRate is the open-loop batch rate. At 500 batches/s the seed
	// commit answered at p50 0.9 ms / p99 3-6 ms on 2 CPUs; at 1500/s
	// p99 reached 55 ms-1.1 s and batches were shed. Across 30 s runs on
	// a shared 2-CPU box, 500/s still spread p99 over 6-16 ms; 250/s keeps
	// p99 at 3-4 ms, so the phase measures latency, not queueing.
	tcpRate = 250
	// tcpWindow is the open-loop batches of one round (4 s); its p75 has
	// 250 samples beyond it.
	tcpWindow = 1000
	// tcpClosedRound and tcpBurstRound are each round's closed-loop and
	// burst time.
	tcpClosedRound = time.Second
	tcpBurstRound  = time.Second
	// tcpBurst batches are offered at once to measure how fast the edge
	// drains an overload burst: the gateway's default admission limit,
	// so nothing waits for a token or is shed.
	tcpBurst     = 64
	tcpBurstRest = 5 * time.Millisecond
	// tcpWarm is the bursts each round's fresh stack is warmed with.
	tcpWarm = 500 * time.Millisecond
	// tcpLateFlag: generator lateness (p99) beyond which the open loop
	// did not run open and the run is flagged instead of scored.
	tcpLateFlag = 50 * time.Millisecond
)

var tcpMemHosts = []string{"mem0", "mem1"}

type tcpStack struct {
	rt    proto.Runtime
	ports []proto.Port
	open  func(host string) (proto.Port, error)
	gwc   *gateway.Client
	t     *Tracer
}

func (s *tcpStack) close() {
	for i := len(s.ports) - 1; i >= 0; i-- {
		s.ports[i].Close()
	}
}

// buildTCP starts the stack, seeds it and waits until a full sweep of
// every series answers correctly through the gateway.
func buildTCP(in *inputs, traced bool) (*tcpStack, error) {
	tr := proto.NewTCPTransport()
	var x proto.Transport = tr
	s := &tcpStack{}
	if traced {
		s.t = NewTracer(tr.Runtime().Now)
		x = newTraceTransport(tr, s.t)
	}
	s.rt = x.Runtime()
	s.open = func(host string) (proto.Port, error) {
		ep, err := x.Open(host)
		if err != nil {
			return nil, err
		}
		var p proto.Port = proto.NewStation(s.rt, ep)
		if traced {
			p = &tracePort{Port: p, t: s.t}
		}
		s.ports = append(s.ports, p)
		return p, nil
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	nsp, err := s.open("ns")
	if err != nil {
		return nil, err
	}
	s.rt.Go("ns", nameserver.New(nsp).Run)
	for _, h := range tcpMemHosts {
		p, err := s.open(h)
		if err != nil {
			return nil, err
		}
		s.rt.Go(h, memory.New(p, nameserver.NewClient(p, "ns")).Run)
	}
	gwp, err := s.open("gw")
	if err != nil {
		return nil, err
	}
	s.rt.Go("gw", gateway.New(gwp, "ns").Run)

	seeder, err := s.open("seeder")
	if err != nil {
		return nil, err
	}
	for i, name := range in.names {
		mc := memory.NewClient(seeder, tcpMemHosts[in.owner[i]])
		if err := mc.Store(name, in.samples(i, 0, tcpSamples)...); err != nil {
			return nil, fmt.Errorf("seed %s: %w", name, err)
		}
	}
	cp, err := s.open("client")
	if err != nil {
		return nil, err
	}
	if s.gwc, err = connectGateway(cp, 1); err != nil {
		return nil, err
	}
	for b := 0; b < len(in.names); b += tcpBatch {
		var reqs []proto.SeriesRequest
		for _, name := range in.names[b : b+tcpBatch] {
			reqs = append(reqs, proto.SeriesRequest{Series: name, Count: tcpSamples})
		}
		res, err := s.gwc.FetchMany(reqs)
		if err != nil {
			return nil, fmt.Errorf("warm sweep: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("warm sweep %s: %w", r.Series, r.Err)
			}
			if err := in.check(r.Series, r.Samples, 0); err != nil {
				return nil, fmt.Errorf("warm sweep: %w", err)
			}
		}
	}
	ok = true
	return s, nil
}

// connectGateway discovers the gateways through the name server, waiting
// for want replicas to have registered.
func connectGateway(p proto.Port, want int) (*gateway.Client, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := gateway.Connect(p, "ns")
		if err == nil && len(c.Hosts()) >= want {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("gateway discovery: fewer than %d replicas registered (%v)", want, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// outcome tallies a phase's operations.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	series    int // answered series
	bad       error
}

// fetch sends one batch through c and records its outcome, checking
// every answered sample against the generator. It reports whether the
// whole batch was answered and when the reply landed.
func (o *outcome) fetch(c *gateway.Client, in *inputs, reqs []proto.SeriesRequest) (bool, time.Time) {
	res, err := c.FetchMany(reqs)
	landed := time.Now()
	return o.record(in, res, err), landed
}

func (o *outcome) record(in *inputs, res []query.Result, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		return false
	}
	for _, r := range res {
		if r.Err != nil {
			o.failed++
			return false
		}
		if cerr := in.check(r.Series, r.Samples, tcpCount); cerr != nil && o.bad == nil {
			o.bad = cerr
		}
	}
	o.series += len(res)
	return true
}

// tcpRun accumulates one pass's rounds.
type tcpRun struct {
	in     *inputs
	seed   int64
	traced bool
	rng    *rand.Rand // draws the open-loop and burst batches

	warm, open, closed, bursts outcome
	writes, writeFails         int64

	setups, p75s, cpus, rates, drains []float64
	late, lats                        Dist
	openRead                          reading
	vtOpen, vtAll, wallAll            time.Duration
	closedClients                     int

	layers *Layers
	spans  *Tracer
}

// runTCPQuery measures in rounds. Each round builds a fresh stack, warms
// it with bursts, then runs an open-loop window, a closed-loop window
// and a few bursts. The run reports the median round, so a slow spell of
// the machine, or one stack's unlucky heap, moves a round or two rather
// than the run's figures.
func runTCPQuery(seed int64, budget time.Duration, traced bool, _ int) (*pass, error) {
	// The stack and its load share one P: goroutine hand-offs then stay
	// on one thread instead of waking the other CPU, whose wake-up
	// latency on a shared virtual machine varies from run to run (with
	// two Ps the burst drain time fell into two modes). The closed loop
	// still runs one client per CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newPass()
	t := &tcpRun{
		in:     makeInputs(seed, tcpSeries, len(tcpMemHosts), "bw"),
		seed:   seed,
		traced: traced,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
	if traced {
		t.layers = newLayers()
	}
	// A round starts only if it fits in the budget at the last round's
	// length.
	t0 := time.Now()
	for roundLen := time.Duration(0); len(t.cpus) == 0 || time.Since(t0)+roundLen <= budget; {
		round0 := time.Now()
		if err := t.round(len(t.setups)); err != nil {
			return nil, err
		}
		roundLen = time.Since(round0)
	}
	rounds := len(t.setups)

	// The remaining set-ups for the setup_s median come after the
	// measured rounds: a closed stack's registration-refresh loops hold
	// its memory until their next tick, which would otherwise weigh on
	// the rounds' garbage collector.
	for len(t.setups) < tcpSetups {
		t0 := time.Now()
		s, err := buildTCP(t.in, false)
		if err != nil {
			return nil, err
		}
		t.setups = append(t.setups, time.Since(t0).Seconds())
		s.close()
	}

	for _, o := range []*outcome{&t.warm, &t.open, &t.closed, &t.bursts} {
		p.attempted += o.attempted
		p.failed += o.failed
		if o.bad != nil {
			p.problem("wrong answer: %v", o.bad)
		}
	}
	p.attempted += int(t.writes)
	p.failed += int(t.writeFails)
	if t.lats.N() == 0 || t.open.series == 0 {
		return nil, fmt.Errorf("no open-loop batch answered (%d failed)", t.open.failed)
	}
	if t.late.Q(0.99) > ms(tcpLateFlag) {
		p.problem("open-loop generator fell behind: p99 lateness %.2f ms > %v", t.late.Q(0.99), tcpLateFlag)
	}

	// On TCP the platform clock is the wall clock: the vt_* metrics are
	// the open loop's throughput and the bursts' drain time on it.
	p.e2e["setup_s"] = Median(t.setups)
	p.e2e["query_p50_ms"] = t.lats.Q(0.50)
	p.e2e["query_p75_ms"] = Median(t.p75s)
	p.e2e["query_per_s"] = Median(t.rates)
	p.e2e["cpu_us_per_query"] = Median(t.cpus)
	p.e2e["sim_vs_per_wall_s"] = t.vtAll.Seconds() / t.wallAll.Seconds()
	p.e2e["vt_queries_per_s"] = float64(t.open.series) / t.vtOpen.Seconds()
	p.e2e["vt_recovery_s"] = Median(t.drains)
	p.e2e["answered_ratio"] = 1 - ratio(float64(p.failed), float64(p.attempted))
	p.e2e["peak_rss_mb"] = peakRSSMB()
	p.cost = p.e2e["cpu_us_per_query"]
	_, beyond := Quantile(t.lats.v, 0.99)
	p.note("%d rounds, each on a fresh stack; open loop: %d batches at %d/s, %d answered, p99 has %d samples beyond it",
		rounds, t.open.attempted, tcpRate, t.lats.N(), beyond)
	p.note("closed loop: %d clients, %d batches; bursts: %d batches in bursts of %d (%d more warming up); writer: %d stores, %d failed",
		t.closedClients, t.closed.attempted, t.bursts.attempted, tcpBurst, t.warm.attempted, t.writes, t.writeFails)
	p.note("per round: p75 ms %.3g, cpu_us_per_query %.3g, closed-loop series/s %.3g, burst drain s %.3g", t.p75s, t.cpus, t.rates, t.drains)
	p.note("all open-loop batches: p50 %.3g ms, p75 %.3g ms, p90 %.3g ms, p99 %.3g ms, max %.3g ms; generator lateness p50 %.3g ms, p99 %.3g ms",
		t.lats.Q(0.50), t.lats.Q(0.75), t.lats.Q(0.90), t.lats.Q(0.99), t.lats.Q(1), t.late.Q(0.50), t.late.Q(0.99))

	p.layer["bench.query_p99_ms"] = t.lats.Q(0.99)
	p.layer["go.alloc_bytes_per_query"] = t.openRead.allocBytes / float64(t.open.series)
	p.layer["go.allocs_per_query"] = t.openRead.allocs / float64(t.open.series)
	p.layer["go.gc_cpu_fraction"] = t.openRead.gcCPUFraction
	p.layer["bench.gen_late_ms.max"] = t.late.Q(1)
	p.layer["bench.gen_late_ms.p99"] = t.late.Q(0.99)
	p.layers, p.spans = t.layers, t.spans
	return p, nil
}

// round builds a stack, measures one round on it and tears it down.
func (t *tcpRun) round(n int) error {
	in := t.in
	t0 := time.Now()
	st, err := buildTCP(in, t.traced)
	if err != nil {
		return err
	}
	defer st.close()
	t.setups = append(t.setups, time.Since(t0).Seconds())

	// The closed loop runs one client station per CPU.
	var closedClients []*gateway.Client
	for c := 0; c < runtime.NumCPU(); c++ {
		cp, err := st.open(fmt.Sprintf("closed%d", c))
		if err != nil {
			return err
		}
		gc, err := connectGateway(cp, 1)
		if err != nil {
			return err
		}
		closedClients = append(closedClients, gc)
	}
	t.closedClients = len(closedClients)
	closedRng := make([]*rand.Rand, len(closedClients))
	for c := range closedRng {
		closedRng[c] = rand.New(rand.NewSource(t.seed ^ int64(c+1)<<40 ^ int64(n)<<20))
	}

	// The background writer keeps storing fresh samples next to the
	// reads, continuing each series where the seed left off.
	writer, err := st.open("writer")
	if err != nil {
		return err
	}
	var writes, writeFails atomic.Int64
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		next := make([]int, len(in.names))
		tick := time.NewTicker(tcpWriteEvery)
		defer tick.Stop()
		for i := 0; ; i = (i + 1) % len(in.names) {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			k := tcpSamples + next[i]
			mc := memory.NewClient(writer, tcpMemHosts[in.owner[i]])
			writes.Add(1)
			if err := mc.Store(in.names[i], in.samples(i, k, k+1)...); err != nil {
				writeFails.Add(1)
				continue
			}
			next[i]++
		}
	}()
	defer func() {
		close(stopWriter)
		<-writerDone
		t.writes += writes.Load()
		t.writeFails += writeFails.Load()
	}()

	var wg sync.WaitGroup
	// burstPhase offers overload bursts for d and returns the median
	// burst's recovery: the platform time from its offer until its
	// backlog has drained.
	burstPhase := func(o *outcome, d time.Duration) float64 {
		var drains []float64
		for burstStart := time.Now(); len(drains) == 0 || time.Since(burstStart) < d; {
			reqs := make([][]proto.SeriesRequest, tcpBurst)
			for i := range reqs {
				reqs[i] = in.batch(t.rng, tcpBatch, tcpCount)
			}
			b0 := st.rt.Now()
			for i := range reqs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					o.fetch(st.gwc, in, reqs[i])
				}()
			}
			wg.Wait()
			drains = append(drains, (st.rt.Now() - b0).Seconds())
			time.Sleep(tcpBurstRest)
		}
		return Median(drains)
	}

	// Warm-up bursts grow the stations' recycled inboxes to their working
	// size, so the measured window meets the heap it will keep.
	burstPhase(&t.warm, tcpWarm)
	if t.traced {
		// Per-layer figures describe the measured phases, not set-up.
		st.t.reset()
	}
	rt0, wall0 := st.rt.Now(), time.Now()
	before := t.open.attempted + t.closed.attempted + t.bursts.attempted

	// Open loop: tcpWindow batches at tcpRate, each timed from its due
	// time. The window starts from a collected heap, so the warm-up's
	// garbage is not billed to it.
	lat := make([]float64, tcpWindow) // ms; 0 = not answered
	runtime.GC()
	m := startMeter()
	v0 := st.rt.Now()
	start := time.Now()
	for i := range lat {
		due := start.Add(time.Duration(i) * time.Second / tcpRate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t.late.Add(ms(time.Since(due)))
		reqs := in.batch(t.rng, tcpBatch, tcpCount)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, landed := t.open.fetch(st.gwc, in, reqs); ok {
				lat[i] = ms(landed.Sub(due))
			}
		}()
	}
	wg.Wait()
	t.vtOpen += st.rt.Now() - v0
	r := m.stop()
	t.openRead.add(r)
	var d Dist
	for _, v := range lat {
		if v > 0 {
			d.Add(v)
			t.lats.Add(v)
		}
	}
	if d.N() == 0 {
		return fmt.Errorf("round %d: no open-loop batch answered", n)
	}
	t.p75s = append(t.p75s, d.Q(0.75))
	t.cpus = append(t.cpus, us(r.cpu)/float64(d.N()*tcpBatch))

	// Closed loop for capacity: answered series per second.
	var served atomic.Int64
	closedStart := time.Now()
	for c, gc := range closedClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(closedStart) < tcpClosedRound {
				if ok, _ := t.closed.fetch(gc, in, in.batch(closedRng[c], tcpBatch, tcpCount)); ok {
					served.Add(tcpBatch)
				}
			}
		}()
	}
	wg.Wait()
	t.rates = append(t.rates, float64(served.Load())/time.Since(closedStart).Seconds())

	t.drains = append(t.drains, burstPhase(&t.bursts, tcpBurstRound))
	t.vtAll += st.rt.Now() - rt0
	t.wallAll += time.Since(wall0)
	if t.traced {
		st.t.halt()
		t.layers.absorb(st.t, t.open.attempted+t.closed.attempted+t.bursts.attempted-before)
		if t.spans == nil {
			t.spans = st.t
		}
	}
	return nil
}
