package memory

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

type rigT struct {
	sim  *vclock.Sim
	stC  *proto.Station // client station on host "c"
	srv  *Server
	nsUp bool
}

func rig(t *testing.T, withNS bool) *rigT {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("ns", "1", "ns", "x")
	topo.AddHost("m", "2", "m", "x")
	topo.AddHost("c", "3", "c", "x")
	topo.AddSwitch("sw")
	topo.Connect("ns", "sw")
	topo.Connect("m", "sw")
	topo.Connect("c", "sw")
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	rt := tr.Runtime()
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewStation(rt, ep)
	}
	stNS, stM, stC := open("ns"), open("m"), open("c")
	var nsc *nameserver.Client
	if withNS {
		sim.Go("ns", nameserver.New(stNS).Run)
		nsc = nameserver.NewClient(stM, "ns")
	}
	srv := New(stM, nsc, WithRetention(5))
	sim.Go("memory", srv.Run)
	return &rigT{sim: sim, stC: stC, srv: srv, nsUp: withNS}
}

func (r *rigT) run(t *testing.T, fn func(c *Client)) {
	t.Helper()
	r.sim.Go("test", func() { fn(NewClient(r.stC, "m")) })
	if err := r.sim.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
}

// fetch reads one series through a one-element BatchFetch: the newest
// n samples (n <= 0: the full retained window).
func fetch(c *Client, series string, n int) ([]proto.Sample, error) {
	res, err := c.BatchFetch([]proto.SeriesRequest{{Series: series, Count: n}})
	if err != nil {
		return nil, err
	}
	return res[0].Samples, nil
}

func TestStoreFetch(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		if err := c.Store("lat.a.b", proto.Sample{At: time.Second, Value: 1.5}); err != nil {
			t.Error(err)
			return
		}
		c.Store("lat.a.b", proto.Sample{At: 2 * time.Second, Value: 2.5})
		got, err := fetch(c, "lat.a.b", 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 2 || got[0].Value != 1.5 || got[1].Value != 2.5 {
			t.Errorf("got %+v", got)
		}
	})
}

func TestFetchLastN(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		for i := 1; i <= 4; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		got, _ := fetch(c, "s", 2)
		if len(got) != 2 || got[0].Value != 3 || got[1].Value != 4 {
			t.Errorf("got %+v", got)
		}
	})
}

func TestRetentionCap(t *testing.T) {
	r := rig(t, false) // retention 5
	r.run(t, func(c *Client) {
		for i := 1; i <= 12; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		got, _ := fetch(c, "s", 0)
		if len(got) != 5 {
			t.Errorf("retention: kept %d, want 5", len(got))
			return
		}
		if got[0].Value != 8 || got[4].Value != 12 {
			t.Errorf("oldest retained %+v", got)
		}
	})
}

// TestFetchNonPositiveN pins the documented n <= 0 contract: zero and
// negative counts both return the full retained window, and a count
// larger than the window clamps to it.
func TestFetchNonPositiveN(t *testing.T) {
	r := rig(t, false) // retention 5
	r.run(t, func(c *Client) {
		for i := 1; i <= 8; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		for _, n := range []int{0, -1, -100} {
			got, err := fetch(c, "s", n)
			if err != nil {
				t.Errorf("n=%d: %v", n, err)
				continue
			}
			if len(got) != 5 || got[0].Value != 4 || got[4].Value != 8 {
				t.Errorf("n=%d: got %+v, want the full 5-sample retained window", n, got)
			}
		}
		// n beyond the window clamps instead of erroring.
		if got, _ := fetch(c, "s", 99); len(got) != 5 {
			t.Errorf("n=99: got %d samples, want 5", len(got))
		}
	})
}

// TestBatchFetchMatchesSingle: a multi-series batch answers exactly
// what a one-series batch would, per series, in request order.
func TestBatchFetchMatchesSingle(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		for i := 1; i <= 4; i++ {
			c.Store("p", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
			c.Store("q", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(10 * i)})
		}
		reqs := []proto.SeriesRequest{{Series: "q", Count: 2}, {Series: "p", Count: 0}, {Series: "none", Count: 1}}
		res, err := c.BatchFetch(reqs)
		if err != nil {
			t.Error(err)
			return
		}
		if len(res) != 3 || res[0].Series != "q" || res[1].Series != "p" {
			t.Errorf("results out of order: %+v", res)
			return
		}
		if len(res[0].Samples) != 2 || res[0].Samples[1].Value != 40 {
			t.Errorf("q: %+v", res[0].Samples)
		}
		if len(res[1].Samples) != 4 {
			t.Errorf("p full window: %+v", res[1].Samples)
		}
		if len(res[2].Samples) != 0 || res[2].Error != "" {
			t.Errorf("unknown series in batch: %+v", res[2])
		}
		for i, q := range reqs {
			single, err := fetch(c, q.Series, q.Count)
			if err != nil || !reflect.DeepEqual(single, res[i].Samples) {
				t.Errorf("%s: one-series batch %+v (err %v), multi-series batch %+v", q.Series, single, err, res[i].Samples)
			}
		}
	})
}

func TestFetchUnknownSeriesEmpty(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		got, err := fetch(c, "none", 0)
		if err != nil || len(got) != 0 {
			t.Errorf("got %v err %v", got, err)
		}
	})
}

func TestEmptySeriesNameRejected(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		if err := c.Store("", proto.Sample{Value: 1}); err == nil {
			t.Error("empty series accepted")
		}
	})
}

func TestSeriesRegisteredWithNameServer(t *testing.T) {
	r := rig(t, true)
	r.run(t, func(c *Client) {
		c.Store("bandwidth.a.b", proto.Sample{At: time.Second, Value: 80e6})
		nsc := nameserver.NewClient(r.stC, "ns")
		reg, found, err := nsc.LookupName("bandwidth.a.b")
		if err != nil || !found {
			t.Errorf("series not advertised: %v found=%v", err, found)
			return
		}
		if reg.Host != "m" || reg.Owner != "memory.m" {
			t.Errorf("reg %+v", reg)
		}
		// Memory server itself is registered too.
		if _, found, _ := nsc.LookupName("memory.m"); !found {
			t.Error("memory server not registered")
		}
	})
}

func TestPersistenceRoundTrip(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		c.Store("s1", proto.Sample{At: time.Second, Value: 1})
		c.Store("s2", proto.Sample{At: 2 * time.Second, Value: 2}, proto.Sample{At: 3 * time.Second, Value: 3})
	})
	var buf bytes.Buffer
	if err := r.srv.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := New(nil2(), nil)
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	names := fresh.SeriesNames()
	if len(names) != 2 {
		t.Fatalf("restored series %v", names)
	}
}

// TestPersistRestoreUnderRetention: the round-trip through Persist/
// Restore respects retention on both sides. An unconfigured restoring
// server adopts the persisted cap; an explicitly configured one keeps
// its own and truncates each series to its newest samples.
func TestPersistRestoreUnderRetention(t *testing.T) {
	r := rig(t, false) // server configured WithRetention(5)
	r.run(t, func(c *Client) {
		for i := 1; i <= 9; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
	})
	var buf bytes.Buffer
	if err := r.srv.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Unconfigured server: adopts the persisted retention (5) and the
	// retained window verbatim.
	fresh := New(nil2(), nil)
	if err := fresh.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if fresh.retention != 5 {
		t.Fatalf("adopted retention %d, want 5", fresh.retention)
	}
	if got := fresh.series["s"]; len(got) != 5 || got[0].Value != 5 || got[4].Value != 9 {
		t.Fatalf("restored window %+v", got)
	}

	// Explicitly configured server: keeps its smaller cap and truncates
	// the restored series (more samples than the cap) to the newest.
	small := New(nil2(), nil, WithRetention(3))
	if err := small.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if small.retention != 3 {
		t.Fatalf("configured retention overwritten: %d", small.retention)
	}
	if got := small.series["s"]; len(got) != 3 || got[0].Value != 7 || got[2].Value != 9 {
		t.Fatalf("truncated window %+v, want the newest 3", got)
	}

	// A corrupt/hand-edited image whose series exceed its own declared
	// retention is re-capped on the way in.
	var overfull bytes.Buffer
	st := persistedState{Retention: 2, Series: map[string][]proto.Sample{}}
	for i := 1; i <= 6; i++ {
		st.Series["x"] = append(st.Series["x"], proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
	}
	if err := gob.NewEncoder(&overfull).Encode(st); err != nil {
		t.Fatal(err)
	}
	capped := New(nil2(), nil)
	if err := capped.Restore(&overfull); err != nil {
		t.Fatal(err)
	}
	if got := capped.series["x"]; len(got) != 2 || got[0].Value != 5 || got[1].Value != 6 {
		t.Fatalf("overfull image not re-capped: %+v", got)
	}
}

// nil2 builds a throwaway station for a standalone (never Run) server.
func nil2() *proto.Station {
	topo := simnet.NewTopology()
	topo.AddHost("x", "1", "x", "d")
	topo.AddHost("y", "2", "y", "d")
	topo.Connect("x", "y")
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	ep, _ := tr.Open("x")
	return proto.NewStation(tr.Runtime(), ep)
}
