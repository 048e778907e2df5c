package main

import (
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
)

// The wrappers below sit between the program's layers and record spans
// in a Tracer. They forward every call unchanged, so simulated behaviour
// is identical with and without them; only the traced run installs them.

// tracePort times Station.Call round trips: the proto.station.call span.
type tracePort struct {
	proto.Port
	t *Tracer
}

func (p *tracePort) Call(to string, m proto.Message, timeout time.Duration) (proto.Message, error) {
	done := p.t.enter(spanStationCall, m.Type.String(), p.Host(), to)
	reply, err := p.Port.Call(to, m, timeout)
	done(err != nil)
	return reply, err
}

// traceRuntime propagates the current span into spawned processes and
// wraps inboxes so a process that takes a request adopts its span.
type traceRuntime struct {
	proto.Runtime
	t *Tracer
}

func (r *traceRuntime) Go(name string, fn func()) {
	parent := r.t.Current()
	if parent == 0 {
		r.Runtime.Go(name, fn)
		return
	}
	r.Runtime.Go(name, func() { r.t.inherit(parent, fn) })
}

func (r *traceRuntime) NewInbox(name string) proto.Inbox {
	return &appInbox{Inbox: r.Runtime.NewInbox(name), t: r.t}
}

type appInbox struct {
	proto.Inbox
	t *Tracer
}

func (b *appInbox) Recv() (proto.Message, bool) {
	m, ok := b.Inbox.Recv()
	if ok {
		b.t.adopt(&m)
	}
	return m, ok
}

func (b *appInbox) RecvTimeout(d time.Duration) (proto.Message, bool) {
	m, ok := b.Inbox.RecvTimeout(d)
	if ok {
		b.t.adopt(&m)
	}
	return m, ok
}

func (b *appInbox) TryRecv() (proto.Message, bool) {
	m, ok := b.Inbox.TryRecv()
	if ok {
		b.t.adopt(&m)
	}
	return m, ok
}

// traceTransport opens traced endpoints and hands out the traced runtime.
type traceTransport struct {
	proto.Transport
	rt *traceRuntime
}

func newTraceTransport(tr proto.Transport, t *Tracer) *traceTransport {
	return &traceTransport{Transport: tr, rt: &traceRuntime{Runtime: tr.Runtime(), t: t}}
}

func (x *traceTransport) Runtime() proto.Runtime { return x.rt }

func (x *traceTransport) Open(host string) (proto.Endpoint, error) {
	ep, err := x.Transport.Open(host)
	if err != nil {
		return nil, err
	}
	return &traceEndpoint{Endpoint: ep, t: x.rt.t, inbox: &wireInbox{Inbox: ep.Inbox(), host: host, t: x.rt.t}}, nil
}

// traceEndpoint records rpc and handle spans from the messages crossing
// it, and the wall cost of each Send.
type traceEndpoint struct {
	proto.Endpoint
	t     *Tracer
	inbox *wireInbox
}

func (e *traceEndpoint) Send(to string, m proto.Message) error {
	rpc := e.t.sending(to, &m)
	t0 := time.Now()
	err := e.Endpoint.Send(to, m)
	e.t.sendTime(time.Since(t0))
	if err != nil && rpc != 0 {
		e.t.sendFailed(rpc, &m)
	}
	return err
}

func (e *traceEndpoint) Inbox() proto.Inbox { return e.inbox }

// wireInbox sees every message as it arrives at a host's endpoint.
type wireInbox struct {
	proto.Inbox
	host string
	t    *Tracer
}

func (b *wireInbox) Recv() (proto.Message, bool) {
	m, ok := b.Inbox.Recv()
	if ok {
		b.t.delivered(b.host, &m)
	}
	return m, ok
}

func (b *wireInbox) RecvTimeout(d time.Duration) (proto.Message, bool) {
	m, ok := b.Inbox.RecvTimeout(d)
	if ok {
		b.t.delivered(b.host, &m)
	}
	return m, ok
}

func (b *wireInbox) TryRecv() (proto.Message, bool) {
	m, ok := b.Inbox.TryRecv()
	if ok {
		b.t.delivered(b.host, &m)
	}
	return m, ok
}

// tracePlatform is a simulated platform whose deployments run over the
// traced transport and runtime.
type tracePlatform struct {
	*platform.SimPlatform
	tr *traceTransport
}

func (p *tracePlatform) Runtime() proto.Runtime     { return p.tr.rt }
func (p *tracePlatform) Transport() proto.Transport { return p.tr }
