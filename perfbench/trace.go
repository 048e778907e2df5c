package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"nwsenv/internal/nws/proto"
)

// Span is one traced crossing of a layer boundary, clocked by the
// platform runtime (virtual time on the simulator, wall time on TCP).
// All spans caused by one client request share Trace.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Kind   string        `json:"kind,omitempty"`
	Host   string        `json:"host"`
	Peer   string        `json:"peer,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Open   bool          `json:"open,omitempty"`
	Err    bool          `json:"err,omitempty"`
}

// Dur is the span's length (0 while open).
func (s *Span) Dur() time.Duration {
	if s.Open {
		return 0
	}
	return s.End - s.Start
}

// msgKey identifies a request on the wire: the sending host and the
// sender-unique correlation id. A reply names it as (recipient, ReplyTo).
type msgKey struct {
	from string
	id   int64
}

// Span names, one per layer boundary the wrappers see.
const (
	spanStationCall = "proto.station.call"
	spanRPCPrefix   = "rpc."
	spanHandleSuf   = ".handle"
)

// layerOf names the server layer that handles a request type.
func layerOf(t proto.MsgType) string {
	switch t {
	case proto.MsgRegister, proto.MsgUnregister, proto.MsgLookup, proto.MsgRegisterBulk:
		return "nameserver"
	case proto.MsgStore:
		return "memory.store"
	case proto.MsgFetch, proto.MsgBatchFetch:
		return "memory.fetch"
	case proto.MsgReplStore, proto.MsgReplWindow, proto.MsgReplSync, proto.MsgReplRepair:
		return "memory.repl"
	case proto.MsgForecast, proto.MsgBatchForecast:
		return "forecast"
	case proto.MsgQueryFetch, proto.MsgQueryForecast:
		return "gateway"
	default:
		return "agent"
	}
}

// codecCapture bounds the messages kept for the codec replay, and
// codecEvery samples one sent message in that many so the capture spans
// the whole run instead of only its registration prologue.
const (
	codecCapture = 4096
	codecEvery   = 8
)

// Tracer records spans from the wrappers in memory. It links a request's
// spans across hosts through the message key (From, ID), and within a
// host through the goroutine that handles it: a server process that
// receives a request carries that request's handle span as its current
// span, and processes it spawns inherit it.
type Tracer struct {
	clock func() time.Duration

	mu      sync.Mutex
	spans   []Span
	off     int64            // ID of spans[0] minus one; reset advances it
	calls   map[msgKey]int64 // request in flight -> its rpc span
	handles map[msgKey]int64 // request being served -> its handle span
	cur     map[int64]int64  // goroutine id -> current span
	sendUs  Dist             // wall µs per Endpoint.Send
	sent    map[proto.MsgType]int64
	seen    int64
	shed    int64    // replies answered CodeOverloaded
	frames  [][]byte // V3 payloads sampled from the traffic
	halted  bool     // set by halt: teardown traffic is not recorded
}

// NewTracer records spans clocked by clock.
func NewTracer(clock func() time.Duration) *Tracer {
	return &Tracer{
		clock:   clock,
		calls:   map[msgKey]int64{},
		handles: map[msgKey]int64{},
		cur:     map[int64]int64{},
		sent:    map[proto.MsgType]int64{},
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [...").
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// span returns the recorded span with id, or nil if it was dropped by
// reset (or never existed).
func (t *Tracer) span(id int64) *Span {
	i := id - 1 - t.off
	if id <= 0 || i < 0 || i >= int64(len(t.spans)) {
		return nil
	}
	return &t.spans[i]
}

// reset drops every span recorded so far; requests still in flight keep
// linking to spans that are gone and start new traces instead.
func (t *Tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.off += int64(len(t.spans))
	t.spans = nil
	t.sendUs = Dist{}
	t.sent = map[proto.MsgType]int64{}
	t.shed = 0
	t.frames = nil
}

// halt stops recording, so the measured phase is not mixed with the
// traffic of tearing the stack down.
func (t *Tracer) halt() {
	t.mu.Lock()
	t.halted = true
	t.mu.Unlock()
}

// startLocked opens a span under parent (0 = a new trace).
func (t *Tracer) startLocked(name, kind, host, peer string, parent int64) int64 {
	if t.halted {
		return 0
	}
	id := t.off + int64(len(t.spans)) + 1
	trace := id
	if ps := t.span(parent); ps != nil {
		trace = ps.Trace
	} else {
		parent = 0
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Kind: kind,
		Host: host, Peer: peer, Start: t.clock(), Open: true})
	return id
}

func (t *Tracer) endLocked(id int64, failed bool) {
	s := t.span(id)
	if s == nil || !s.Open || t.halted {
		return
	}
	s.End, s.Open, s.Err = t.clock(), false, failed
}

// Current returns the calling goroutine's current span (0 if none).
func (t *Tracer) Current() int64 {
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur[g]
}

// enter opens a span on the calling goroutine and makes it current; the
// returned restore function ends it and reinstates the previous one.
func (t *Tracer) enter(name, kind, host, peer string) func(failed bool) {
	g := goid()
	t.mu.Lock()
	prev := t.cur[g]
	id := t.startLocked(name, kind, host, peer, prev)
	t.cur[g] = id
	t.mu.Unlock()
	return func(failed bool) {
		t.mu.Lock()
		t.endLocked(id, failed)
		if prev == 0 {
			delete(t.cur, g)
		} else {
			t.cur[g] = prev
		}
		t.mu.Unlock()
	}
}

// inherit runs fn with parent as the goroutine's current span.
func (t *Tracer) inherit(parent int64, fn func()) {
	g := goid()
	t.mu.Lock()
	t.cur[g] = parent
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.cur, g)
		t.mu.Unlock()
	}()
	fn()
}

// sending notes a message leaving a host. A request (no ReplyTo) opens
// an rpc span under the sender's current span and is keyed so the
// receiver can link to it; a reply ends the handle span of the request
// it answers. It returns the rpc span opened (0 for replies).
func (t *Tracer) sending(to string, m *proto.Message) int64 {
	var frame []byte
	g := goid()
	t.mu.Lock()
	if t.halted {
		t.mu.Unlock()
		return 0
	}
	t.sent[m.Type]++
	t.seen++
	if t.seen%codecEvery == 0 && len(t.frames) < codecCapture {
		frame = []byte{} // encode outside the lock
	}
	var rpc int64
	if m.ReplyTo != 0 {
		if m.Code == proto.CodeOverloaded {
			t.shed++
		}
		k := msgKey{to, m.ReplyTo}
		if h, ok := t.handles[k]; ok {
			t.endLocked(h, m.Error != "")
			delete(t.handles, k)
		}
	} else if m.ID != 0 {
		rpc = t.startLocked(spanRPCPrefix+layerOf(m.Type), m.Type.String(), m.From, to, t.cur[g])
		t.calls[msgKey{m.From, m.ID}] = rpc
	}
	t.mu.Unlock()
	if frame != nil {
		frame = proto.AppendEncode(frame, m)
		t.mu.Lock()
		t.frames = append(t.frames, frame)
		t.mu.Unlock()
	}
	return rpc
}

// sendFailed ends an rpc span whose request never left.
func (t *Tracer) sendFailed(rpc int64, m *proto.Message) {
	t.mu.Lock()
	t.endLocked(rpc, true)
	delete(t.calls, msgKey{m.From, m.ID})
	t.mu.Unlock()
}

// sendTime records the wall cost of one Endpoint.Send.
func (t *Tracer) sendTime(d time.Duration) {
	t.mu.Lock()
	if !t.halted {
		t.sendUs.Add(float64(d) / 1e3)
	}
	t.mu.Unlock()
}

// delivered notes a message arriving at host's endpoint. A reply ends
// the caller's rpc span; a request opens a handle span on host, linked
// to the sender's rpc span by (From, ID).
func (t *Tracer) delivered(host string, m *proto.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.ReplyTo != 0 {
		k := msgKey{host, m.ReplyTo}
		if rpc, ok := t.calls[k]; ok {
			t.endLocked(rpc, m.Error != "")
			delete(t.calls, k)
		}
		return
	}
	if m.ID == 0 {
		return
	}
	k := msgKey{m.From, m.ID}
	t.handles[k] = t.startLocked(layerOf(m.Type)+spanHandleSuf, m.Type.String(), host, m.From, t.calls[k])
}

// adopt makes a received request's handle span current on the
// goroutine that took it from an application inbox, so the calls it
// makes while serving are parented on it.
func (t *Tracer) adopt(m *proto.Message) {
	if m.ReplyTo != 0 || m.ID == 0 {
		return
	}
	g := goid()
	t.mu.Lock()
	if h, ok := t.handles[msgKey{m.From, m.ID}]; ok {
		t.cur[g] = h
	}
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes every span, one JSON object per line, to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each closed span's self time: its duration minus
// the part of its interval covered by its closed children (overlapping
// children count once). The result is indexed like spans.
func SelfTimes(spans []Span) []time.Duration {
	pos := indexByID(spans)
	kids := make([][]int, len(spans))
	for i := range spans {
		if p, ok := pos[spans[i].Parent]; ok && !spans[i].Open {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Open {
			continue
		}
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		self[i] = s.Dur() - covered(ivs)
	}
	return self
}

// indexByID maps span IDs to their position in spans.
func indexByID(spans []Span) map[int64]int {
	pos := make(map[int64]int, len(spans))
	for i := range spans {
		pos[spans[i].ID] = i
	}
	return pos
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cs, ce := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > ce {
			total += ce - cs
			cs, ce = iv[0], iv[1]
			continue
		}
		if iv[1] > ce {
			ce = iv[1]
		}
	}
	return total + ce - cs
}
