package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
)

func TestQuantileReportsSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{0, 0.5, 0, 0},
		{1, 0.99, 1, 0},
		{4, 0.5, 2, 2},
		{100, 0.99, 99, 1},
		{1000, 0.99, 990, 10},
		{1000, 1, 1000, 0},
		{1000, 0, 1, 999},
	}
	for _, c := range cases {
		got, beyond := Quantile(seq(c.n), c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("Quantile(1..%d, %v) = %v (%d beyond), want %v (%d beyond)", c.n, c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	var d Dist
	for _, v := range []float64{5, 1, 4, 2, 3} {
		d.Add(v)
	}
	if d.Q(0.5) != 3 || d.Q(1) != 5 || d.N() != 5 {
		t.Errorf("Dist: median %v max %v n %d, want 3, 5, 5", d.Q(0.5), d.Q(1), d.N())
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median of 1..4 = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 10, Start: 0, End: 100 * ms},
		// Overlapping children cover [10, 50) once.
		{ID: 11, Parent: 10, Start: 10 * ms, End: 30 * ms},
		{ID: 12, Parent: 10, Start: 20 * ms, End: 50 * ms},
		// A child running past its parent counts only inside it.
		{ID: 13, Parent: 10, Start: 90 * ms, End: 120 * ms},
		// Open children cover nothing.
		{ID: 14, Parent: 10, Start: 60 * ms, Open: true},
		// A grandchild is covered by its own parent, not the root.
		{ID: 15, Parent: 12, Start: 25 * ms, End: 35 * ms},
	}
	self := SelfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 0, 10 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self time = %v, want %v", spans[i].ID, self[i], want[i])
		}
	}
}

// TestSpansLinkAcrossFromID drives the tracer the way the wrappers do
// for one gateway query: client call -> gateway handle -> backend call
// -> memory handle, with the gateway serving on its own goroutine.
func TestSpansLinkAcrossFromID(t *testing.T) {
	var now time.Duration
	tick := func() time.Duration { now += time.Millisecond; return now }
	tr := NewTracer(tick)

	// The client's station.call wraps its request on the wire.
	done := tr.enter(spanStationCall, "QueryFetch", "client", "gw")
	req := proto.Message{Type: proto.MsgQueryFetch, From: "client", ID: 7}
	tr.sending("gw", &req)
	// Another client's request with the same ID must not be confused.
	other := proto.Message{Type: proto.MsgQueryFetch, From: "client2", ID: 7}
	tr.sending("gw", &other)

	served := make(chan struct{})
	go func() {
		defer close(served)
		tr.delivered("gw", &req)
		tr.adopt(&req) // the gateway process takes the request
		back := proto.Message{Type: proto.MsgBatchFetch, From: "gw", ID: 3}
		tr.sending("mem0", &back)
		tr.delivered("mem0", &back)
		ack := proto.Message{Type: proto.MsgBatchFetchReply, From: "mem0", ReplyTo: 3}
		tr.sending("gw", &ack)
		tr.delivered("gw", &ack)
		reply := proto.Message{Type: proto.MsgQueryFetchReply, From: "gw", ReplyTo: 7}
		tr.sending("client", &reply)
		tr.delivered("client", &reply)
	}()
	<-served
	done(false)

	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		if s.Host == "client2" {
			continue
		}
		if _, dup := byName[s.Name]; dup {
			t.Fatalf("two %s spans: %+v", s.Name, tr.Spans())
		}
		byName[s.Name] = s
	}
	chain := []string{spanStationCall, "rpc.gateway", "gateway.handle", "rpc.memory.fetch", "memory.fetch.handle"}
	root := byName[spanStationCall]
	for i, name := range chain {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span in %+v", name, tr.Spans())
		}
		if s.Open {
			t.Errorf("%s span left open", name)
		}
		if s.Trace != root.ID {
			t.Errorf("%s span in trace %d, want %d", name, s.Trace, root.ID)
		}
		if i > 0 && s.Parent != byName[chain[i-1]].ID {
			t.Errorf("%s parent = %d, want %s (%d)", name, s.Parent, chain[i-1], byName[chain[i-1]].ID)
		}
	}
	if gw, rpc := byName["gateway.handle"], byName["rpc.gateway"]; gw.Start < rpc.Start || gw.End > rpc.End {
		t.Errorf("gateway handle [%v,%v] not inside its rpc [%v,%v]", gw.Start, gw.End, rpc.Start, rpc.End)
	}
}

func TestTracerResetDropsSetupSpans(t *testing.T) {
	tr := NewTracer(func() time.Duration { return 0 })
	req := proto.Message{Type: proto.MsgStore, From: "seeder", ID: 1}
	tr.sending("mem0", &req)
	tr.reset()
	// The reply to a request sent before the reset lands after it.
	tr.delivered("seeder", &proto.Message{From: "mem0", ReplyTo: 1})
	next := proto.Message{Type: proto.MsgStore, From: "writer", ID: 1}
	tr.sending("mem0", &next)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Host != "writer" || spans[0].Parent != 0 {
		t.Fatalf("after reset: %+v, want only the writer's rpc span", spans)
	}
}

// TestBenchmarkFileNamesEveryMetric keeps BENCHMARK.json and the
// metrics this command prints in step.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the command prints %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
}
