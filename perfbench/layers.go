package main

import (
	"runtime"
	"strings"
	"time"

	"nwsenv/internal/nws/proto"
)

// Layers folds the spans of every traced instance of a pass into
// per-layer observations.
type Layers struct {
	d       map[string]*Dist
	c       map[string]float64
	frames  [][]byte
	batches float64 // client query batches the workload issued
}

func newLayers() *Layers {
	return &Layers{d: map[string]*Dist{}, c: map[string]float64{}}
}

func (l *Layers) dist(name string) *Dist {
	d := l.d[name]
	if d == nil {
		d = &Dist{}
		l.d[name] = d
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// absorb folds one finished tracer. batches is the number of client
// query batches the traced instance issued.
func (l *Layers) absorb(t *Tracer, batches int) {
	spans := t.Spans()
	self := SelfTimes(spans)
	pos := indexByID(spans)
	l.batches += float64(batches)
	l.c["spans"] += float64(len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Open {
			continue
		}
		var parent *Span
		if j, ok := pos[s.Parent]; ok {
			parent = &spans[j]
		}
		switch s.Name {
		case spanStationCall:
			l.dist("station.call_ms").Add(ms(s.Dur()))
			l.dist("station.call_self_ms").Add(ms(self[i]))
			if s.Err {
				l.c["station.call_errors"]++
			}
		case "gateway.handle":
			l.dist("gateway.handle_ms").Add(ms(s.Dur()))
			l.dist("gateway.handle_self_ms").Add(ms(self[i]))
			if parent != nil && !parent.Open && parent.Name == spanRPCPrefix+"gateway" {
				l.dist("gateway.wait_and_transit_ms").Add(ms(parent.Dur() - s.Dur()))
			}
			l.c["gateway.handles"]++
		case spanRPCPrefix + "memory.fetch":
			l.dist("query.backend_call_ms").Add(ms(s.Dur()))
			l.dist("query.backend_call_self_ms").Add(ms(self[i]))
			l.c["query.backend_calls"]++
		case spanRPCPrefix + "nameserver":
			if s.Kind == proto.MsgLookup.String() {
				l.c["query.dir_calls"]++
			}
		case "memory.fetch.handle":
			l.dist("memory.fetch_handle_us").Add(us(s.Dur()))
		case "memory.store.handle":
			l.dist("memory.store_handle_us").Add(us(s.Dur()))
			l.c["memory.stores"]++
		case "nameserver.handle":
			l.dist("nameserver.handle_us").Add(us(s.Dur()))
			l.c["nameserver.requests"]++
		case "forecast.handle":
			l.dist("forecast.handle_ms").Add(ms(s.Dur()))
			l.dist("forecast.handle_self_ms").Add(ms(self[i]))
			l.c["forecast.handles"]++
		}
		if parent != nil && parent.Name == "forecast.handle" && strings.HasPrefix(s.Name, spanRPCPrefix) {
			l.c["forecast.backend_calls"]++
		}
	}
	t.mu.Lock()
	send := l.dist("endpoint.send_us")
	for _, v := range t.sendUs.v {
		send.Add(v)
	}
	l.c["replica.sends"] += float64(t.sent[proto.MsgReplStore])
	l.c["gateway.shed"] += float64(t.shed)
	for _, f := range t.frames {
		if len(l.frames) < codecCapture {
			l.frames = append(l.frames, f)
		}
	}
	t.mu.Unlock()
}

// fill writes the span- and codec-derived per-layer metrics into out.
func (l *Layers) fill(out map[string]float64) {
	q := func(name string, p float64) float64 { return l.dist(name).Q(p) }
	out["proto.endpoint.send_us.p50"] = q("endpoint.send_us", 0.50)
	out["proto.endpoint.send_us.p99"] = q("endpoint.send_us", 0.99)
	out["proto.endpoint.sends"] = float64(l.dist("endpoint.send_us").N())
	out["proto.station.call_ms.p50"] = q("station.call_ms", 0.50)
	out["proto.station.call_ms.p99"] = q("station.call_ms", 0.99)
	out["proto.station.call_self_ms.p50"] = q("station.call_self_ms", 0.50)
	out["proto.station.call_errors"] = l.c["station.call_errors"]
	out["nameserver.handle_us.p50"] = q("nameserver.handle_us", 0.50)
	out["nameserver.handle_us.p99"] = q("nameserver.handle_us", 0.99)
	out["nameserver.requests_per_batch"] = ratio(l.c["nameserver.requests"], l.batches)
	out["gateway.handle_ms.p50"] = q("gateway.handle_ms", 0.50)
	out["gateway.handle_ms.p99"] = q("gateway.handle_ms", 0.99)
	out["gateway.handle_self_ms.p50"] = q("gateway.handle_self_ms", 0.50)
	out["gateway.handle_self_ms.p99"] = q("gateway.handle_self_ms", 0.99)
	out["gateway.shed_ratio"] = ratio(l.c["gateway.shed"], l.c["gateway.handles"])
	out["gateway.wait_and_transit_ms.p50"] = q("gateway.wait_and_transit_ms", 0.50)
	out["gateway.wait_and_transit_ms.p99"] = q("gateway.wait_and_transit_ms", 0.99)
	out["query.backend_calls_per_batch"] = ratio(l.c["query.backend_calls"], l.batches)
	out["query.dir_calls_per_batch"] = ratio(l.c["query.dir_calls"], l.batches)
	out["query.backend_call_ms.p50"] = q("query.backend_call_ms", 0.50)
	out["query.backend_call_ms.p99"] = q("query.backend_call_ms", 0.99)
	out["query.backend_call_self_ms.p50"] = q("query.backend_call_self_ms", 0.50)
	out["memory.fetch_handle_us.p50"] = q("memory.fetch_handle_us", 0.50)
	out["memory.fetch_handle_us.p99"] = q("memory.fetch_handle_us", 0.99)
	out["memory.store_handle_us.p50"] = q("memory.store_handle_us", 0.50)
	out["memory.store_handle_us.p99"] = q("memory.store_handle_us", 0.99)
	out["replica.sends_per_store"] = ratio(l.c["replica.sends"], l.c["memory.stores"])
	out["forecast.handle_ms.p50"] = q("forecast.handle_ms", 0.50)
	out["forecast.handle_ms.p99"] = q("forecast.handle_ms", 0.99)
	out["forecast.handle_self_ms.p50"] = q("forecast.handle_self_ms", 0.50)
	out["forecast.backend_calls_per_batch"] = ratio(l.c["forecast.backend_calls"], l.c["forecast.handles"])
	out["bench.spans"] = l.c["spans"]
	enc, dec, size, allocs := codecReplay(l.frames)
	out["proto.codec.encode_ns"] = enc
	out["proto.codec.decode_ns"] = dec
	out["proto.codec.bytes_per_msg"] = size
	out["proto.codec.allocs_per_msg"] = allocs
}

// codecMinTime is how long each codec replay loop runs at least.
const codecMinTime = 100 * time.Millisecond

// codecReplay replays captured V3 payloads through the codec: mean ns
// per message to encode and to decode, mean payload bytes, and heap
// allocations per encode+decode pair.
func codecReplay(frames [][]byte) (encNs, decNs, bytesPerMsg, allocsPerMsg float64) {
	if len(frames) == 0 {
		return 0, 0, 0, 0
	}
	msgs := make([]proto.Message, 0, len(frames))
	size := 0
	for _, f := range frames {
		var m proto.Message
		if proto.Decode(f, &m) == nil {
			msgs = append(msgs, m)
			size += len(f)
		}
	}
	if len(msgs) == 0 {
		return 0, 0, 0, 0
	}
	buf := make([]byte, 0, 1<<16)
	var scratch proto.Message

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range msgs {
		buf = proto.AppendEncode(buf[:0], &msgs[i])
		if err := proto.Decode(buf, &scratch); err != nil {
			return 0, 0, 0, 0
		}
	}
	runtime.ReadMemStats(&ms1)
	allocsPerMsg = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(msgs))

	n := 0
	start := time.Now()
	for time.Since(start) < codecMinTime {
		for i := range msgs {
			buf = proto.AppendEncode(buf[:0], &msgs[i])
		}
		n += len(msgs)
	}
	encNs = float64(time.Since(start)) / float64(n)

	n = 0
	start = time.Now()
	for time.Since(start) < codecMinTime {
		for _, f := range frames {
			if err := proto.Decode(f, &scratch); err != nil {
				continue
			}
		}
		n += len(frames)
	}
	decNs = float64(time.Since(start)) / float64(n)
	return encNs, decNs, float64(size) / float64(len(msgs)), allocsPerMsg
}
