package replica

import (
	"sync"
	"time"

	"nwsenv/internal/nws/proto"
)

// DefaultWindow bounds the fan-out messages in flight per replica. A
// slow or partitioned replica sheds writes instead of queuing without
// bound; its lag watermark surfaces the gap and anti-entropy repair
// closes it.
const DefaultWindow = 128

// DefaultTimeout bounds one fan-out delivery call.
const DefaultTimeout = 10 * time.Second

// Fanout replicates accepted stores to a fixed replica set
// asynchronously: the primary's store path enqueues and returns, and
// one sender process per replica drains a bounded in-flight window in
// arrival order. Delivery is at-most-once — a shed or failed message is
// not retried; the replica's lag watermark records the gap.
type Fanout struct {
	port    proto.Port
	tracker *Tracker
	met     Metrics
	window  int
	timeout time.Duration

	mu     sync.Mutex
	queues map[string]*sendQueue
	closed bool
}

type sendQueue struct {
	inbox    proto.Inbox
	inflight int
}

// NewFanout starts one sender process per replica host on port's
// runtime. tracker carries the primary's cumulative totals (shared with
// the owning server so repair can pin them).
func NewFanout(port proto.Port, replicas []string, tracker *Tracker, met Metrics) *Fanout {
	f := &Fanout{
		port:    port,
		tracker: tracker,
		met:     met,
		window:  DefaultWindow,
		timeout: DefaultTimeout,
		queues:  make(map[string]*sendQueue, len(replicas)),
	}
	rt := port.Runtime()
	for _, host := range replicas {
		if host == port.Host() {
			continue // never replicate to self
		}
		q := &sendQueue{inbox: rt.NewInbox("replfan:" + port.Host() + "->" + host)}
		f.queues[host] = q
		h := host
		rt.Go("replfan:"+port.Host()+"->"+h, func() { f.sender(h, q) })
	}
	return f
}

// Replicas returns the replica hosts this fan-out feeds, sorted order
// not guaranteed.
func (f *Fanout) Replicas() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.queues))
	for h := range f.queues {
		out = append(out, h)
	}
	return out
}

// Store fans one accepted store out to every replica. total is the
// primary's cumulative per-series count after accepting these samples;
// samples must be a caller-owned copy (they are retained in the queue).
func (f *Fanout) Store(series string, samples []proto.Sample, total int64) {
	f.send(proto.Message{
		Type:   proto.MsgReplStore,
		Series: series, Samples: samples, Total: total,
	})
}

// Window pushes a full-window replacement (anti-entropy backfill) to
// every replica: the receiver discards its copy of the series and
// adopts samples with applied = total.
func (f *Fanout) Window(series string, samples []proto.Sample, total int64) {
	f.send(proto.Message{
		Type:   proto.MsgReplWindow,
		Series: series, Samples: samples, Total: total,
	})
}

func (f *Fanout) send(m proto.Message) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	for _, q := range f.queues {
		if q.inflight >= f.window {
			f.met.Drops.Inc()
			continue
		}
		q.inflight++
		q.inbox.Send(m)
	}
}

// Stop closes every sender queue; in-flight deliveries finish or time
// out on their own.
func (f *Fanout) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, q := range f.queues {
		q.inbox.Close()
	}
}

func (f *Fanout) sender(host string, q *sendQueue) {
	for {
		m, ok := q.inbox.Recv()
		if !ok {
			return
		}
		_, err := f.port.Call(host, m, f.timeout)
		f.mu.Lock()
		q.inflight--
		f.mu.Unlock()
		if err == nil {
			f.met.Writes.Inc()
		}
	}
}
