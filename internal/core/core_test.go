package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// simDeploy runs the whole pipeline (Map, Plan, Apply) on the simulated
// platform. It must be called from a simulation process.
func simDeploy(net *simnet.Network, runs []MapRun, opts ...Option) (*Outcome, error) {
	pl := NewPipeline(platform.NewSimPlatform(net, proto.NewSimTransport(net)), opts...)
	return pl.Deploy(context.Background(), runs...)
}

// simPlan runs Map and Plan on the simulated platform without starting
// agents. It must be called from a simulation process.
func simPlan(net *simnet.Network, runs []MapRun, opts ...Option) (*PlanResult, error) {
	pl := NewPipeline(platform.NewSimPlatform(net, proto.NewSimTransport(net)), opts...)
	m, err := pl.Map(context.Background(), runs...)
	if err != nil {
		return nil, err
	}
	return pl.Plan(m)
}

// runSim runs fn as a simulation process on net for up to d of virtual
// time and fails the test on a simulator error or fn's error.
func runSim(t *testing.T, net *simnet.Network, d time.Duration, fn func() error) {
	t.Helper()
	var err error
	net.Sim().Go("pipeline", func() { err = fn() })
	if er := net.Sim().RunUntil(d); er != nil {
		t.Fatal(er)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// ensLyonRuns is the paper's two-run mapping of the testbed, one run
// per firewall side.
func ensLyonRuns(e *topo.EnsLyon) []MapRun {
	return []MapRun{
		{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames},
		{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames},
	}
}

func ensLyonOpts(e *topo.EnsLyon) []Option {
	return []Option{WithAliases(e.GatewayAliases...), WithTokenGap(time.Second),
		WithHostSensors(30 * time.Second)}
}

// ensLyonAutoDeploy maps, plans and deploys the paper's testbed. The
// mapping itself takes ~1 virtual minute; a 30-minute budget keeps the
// always-on host sensors from burning real test time.
func ensLyonAutoDeploy(t *testing.T) (*topo.EnsLyon, *simnet.Network, *Outcome) {
	t.Helper()
	e := topo.NewEnsLyon()
	net := simnet.NewNetwork(vclock.New(), e.Topo)
	var out *Outcome
	runSim(t, net, 30*time.Minute, func() (err error) {
		out, err = simDeploy(net, ensLyonRuns(e), ensLyonOpts(e)...)
		return err
	})
	return e, net, out
}

// ensLyonPlan maps and plans the paper's testbed without deploying.
func ensLyonPlan(t *testing.T) *PlanResult {
	t.Helper()
	e := topo.NewEnsLyon()
	net := simnet.NewNetwork(vclock.New(), e.Topo)
	var pr *PlanResult
	runSim(t, net, 30*time.Minute, func() (err error) {
		pr, err = simPlan(net, ensLyonRuns(e), ensLyonOpts(e)...)
		return err
	})
	return pr
}

func TestAutoDeployPlanOnly(t *testing.T) {
	pr := ensLyonPlan(t)
	if pr.Plan == nil || pr.Validation == nil {
		t.Fatal("missing plan or validation")
	}
	if !pr.Validation.Complete {
		t.Fatalf("incomplete: %v", pr.Validation.MissingPairs)
	}
	if len(pr.Mapping.Merged.Networks) < 4 {
		t.Fatalf("networks %d", len(pr.Mapping.Merged.Networks))
	}
	// 14 distinct machines (6 outside + 11 inside entries, minus the 3
	// gateways counted on both sides).
	if len(pr.Plan.Hosts) != 14 {
		t.Fatalf("plan hosts %d: %v", len(pr.Plan.Hosts), pr.Plan.Hosts)
	}
}

func TestAutoDeployEndToEnd(t *testing.T) {
	e, net, out := ensLyonAutoDeploy(t)
	if out.Deployment == nil {
		t.Fatal("no deployment")
	}
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Live composed estimate across the firewall.
	var est deploy.LinkEstimate
	var eerr error
	sim.Go("query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		es := out.Deployment.Estimator(master.Station())
		est, eerr = es.Estimate("canaria.ens-lyon.fr", "myri2.popc.private")
	})
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	if eerr != nil {
		t.Fatal(eerr)
	}
	truth, _ := e.Topo.AloneBandwidth("canaria", "myri2")
	if est.BandwidthMbps > 2.5*truth/1e6 || est.BandwidthMbps < 0.4*truth/1e6 {
		t.Fatalf("estimate %.1f Mbps vs truth %.1f", est.BandwidthMbps, truth/1e6)
	}
	out.Deployment.Stop()
}

func TestAutoDeploySingleRun(t *testing.T) {
	tp, truth := topo.RandomLAN(11, 3, 3)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}
	var out *PlanResult
	runSim(t, net, 24*time.Hour, func() (err error) {
		out, err = simPlan(net, []MapRun{{Master: hosts[0], Hosts: hosts}})
		return err
	})
	// Every ground-truth segment appears as a clique with the right
	// style.
	for seg, tr := range truth {
		found := false
		for _, c := range out.Plan.Cliques {
			if c.Network == "" {
				continue
			}
			for _, m := range c.Members {
				for _, h := range tr.Hosts {
					if strings.HasPrefix(m, h+".") || m == h {
						found = true
						if tr.Shared != c.Shared {
							t.Errorf("segment %s planned shared=%v truth=%v", seg, c.Shared, tr.Shared)
						}
					}
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("segment %s not covered by any clique", seg)
		}
	}
}

func TestAutoDeployNoRuns(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	var err error
	sim.Go("auto", func() { _, err = simDeploy(net, nil) })
	if er := sim.RunUntil(time.Minute); er != nil {
		t.Fatal(er)
	}
	if err == nil {
		t.Fatal("expected configuration error")
	}
}

func TestGridMLRoundTripDrivesPlanner(t *testing.T) {
	// Save the merged mapping to GridML, reload it, and plan from the
	// file: the administrator-publishes-the-mapping workflow of §4.3.
	out := ensLyonPlan(t)
	enc, err := out.Mapping.Merged.Doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := decodeGridML(enc)
	if err != nil {
		t.Fatal(err)
	}
	merged := env.MergedFromGridML(doc)
	if len(merged.Networks) == 0 {
		t.Fatal("no networks reconstructed from GridML")
	}
	plan, err := deploy.NewPlan(merged, deploy.PlanConfig{Master: "the-doors.ens-lyon.fr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cliques) != len(out.Plan.Cliques) {
		t.Fatalf("plan from file has %d cliques, direct plan %d\nfile: %s\ndirect: %s",
			len(plan.Cliques), len(out.Plan.Cliques), plan.Summary(), out.Plan.Summary())
	}
	est := deploy.NewEstimator(plan, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	if ok, missing := est.Complete(); !ok {
		t.Fatalf("plan from GridML incomplete: %v", missing)
	}
}

// decodeGridML avoids importing gridml twice in the test file header.
func decodeGridML(data []byte) (*gridml.Document, error) { return gridml.Decode(data) }

// TestAutoDeployScales exercises the full pipeline on a 60-host LAN:
// the planner stays complete, the mapping cost stays minutes, and the
// deployment starts every agent.
func TestAutoDeployScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	tp, truth := topo.RandomLAN(99, 10, 6)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}
	var out *Outcome
	var err error
	sim.Go("auto", func() {
		out, err = simDeploy(net, []MapRun{{Master: hosts[0], Hosts: hosts}}, WithTokenGap(2*time.Second))
	})
	if e := sim.RunUntil(3 * time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Plan.Hosts) != 60 {
		t.Fatalf("hosts %d", len(out.Plan.Hosts))
	}
	if !out.Validation.Complete {
		t.Fatalf("incomplete at scale: %d missing", len(out.Validation.MissingPairs))
	}
	if d := out.Merged.Stats.Duration(); d > time.Hour {
		t.Fatalf("mapping 60 hosts took %v of virtual time", d)
	}
	if len(out.Deployment.Agents) != 60 {
		t.Fatalf("agents %d", len(out.Deployment.Agents))
	}
	// Segment count sanity: 10 network cliques (+ bridges).
	netCliques := 0
	for _, c := range out.Plan.Cliques {
		if c.Network != "" {
			netCliques++
		}
	}
	if netCliques != len(truth) {
		t.Fatalf("network cliques %d, want %d", netCliques, len(truth))
	}
	out.Deployment.Stop()
}

// TestCPUForecastEndToEnd: host sensors feed CPU availability series and
// the forecaster predicts them — the non-network half of §2's monitoring
// (CPU load and the time-slice a new process would get).
func TestCPUForecastEndToEnd(t *testing.T) {
	_, net, out := ensLyonAutoDeploy(t)
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var pred predict.Prediction
	var err error
	sim.Go("cpu-query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		qc := out.Deployment.QueryClient(master.Station())
		pred, err = qc.Forecast("cpu."+out.Resolve["canaria.ens-lyon.fr"], 0)
	})
	if e := sim.RunUntil(base + 6*time.Minute); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pred.Value <= 0 || pred.Value > 1 {
		t.Fatalf("cpu availability forecast %v out of (0,1]", pred.Value)
	}
	out.Deployment.Stop()
}

// TestAutoDeployThreeRunsFold: more than two mapping runs fold into one
// view (§4.3 suggests mapping big platforms piecewise and merging). A
// third, redundant run over the sci cluster from sci0's viewpoint must
// not duplicate networks or machines.
func TestAutoDeployThreeRunsFold(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	sciNames := map[string]string{}
	sciHosts := []string{"sci0", "sci1", "sci2", "sci3", "sci4", "sci5", "sci6"}
	for _, h := range sciHosts {
		sciNames[h] = e.InsideNames[h]
	}
	runs := append(ensLyonRuns(e), MapRun{Master: "sci0", Hosts: sciHosts, Names: sciNames})
	var out *PlanResult
	runSim(t, net, 2*time.Hour, func() (err error) {
		out, err = simPlan(net, runs, WithAliases(e.GatewayAliases...))
		return err
	})
	// Same canonical host set as the two-run merge.
	if len(out.Plan.Hosts) != 14 {
		t.Fatalf("hosts %d: %v", len(out.Plan.Hosts), out.Plan.Hosts)
	}
	// The sci network appears once, not twice.
	sciNets := 0
	for _, nw := range out.Mapping.Merged.Networks {
		for _, h := range nw.Hosts {
			if h == "sci3.popc.private" {
				sciNets++
				break
			}
		}
	}
	if sciNets != 1 {
		t.Fatalf("sci cluster appears in %d networks after 3-run fold", sciNets)
	}
	if !out.Validation.Complete {
		t.Fatalf("incomplete after fold: %v", out.Validation.MissingPairs)
	}
}
