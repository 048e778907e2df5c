package proto

import (
	"sync"
	"time"

	"nwsenv/internal/vclock"
)

// Runtime abstracts time and concurrency so NWS components run unchanged
// on virtual time (simulation) or wall-clock time (real TCP deployments).
type Runtime interface {
	// Now returns the current time as an offset from the runtime epoch.
	Now() time.Duration
	// Sleep blocks the calling process/goroutine.
	Sleep(d time.Duration)
	// Go spawns a process/goroutine.
	Go(name string, fn func())
	// After schedules fn; the returned function cancels it (best effort).
	After(d time.Duration, fn func()) (cancel func())
	// NewInbox creates a mailbox for message hand-off.
	NewInbox(name string) Inbox
}

// Inbox is a mailbox of messages. Its bound depends on the runtime: a
// simulated inbox buffers without limit, while a real-time inbox holds
// 1024 messages and Send blocks while it is full, until a receiver
// takes one or the inbox is closed. Send after Close drops the message.
type Inbox interface {
	// Recv blocks until a message arrives; ok=false after Close.
	Recv() (Message, bool)
	// RecvTimeout is Recv with a timeout; ok=false on timeout or close.
	RecvTimeout(d time.Duration) (Message, bool)
	// TryRecv never blocks.
	TryRecv() (Message, bool)
	// Send enqueues m, blocking on a full real-time inbox.
	Send(m Message)
	// Close releases receivers.
	Close()
}

// ---- Simulated runtime ----

// SimRuntime adapts a vclock simulation to the Runtime interface.
type SimRuntime struct{ Sim *vclock.Sim }

// NewSimRuntime wraps sim.
func NewSimRuntime(sim *vclock.Sim) *SimRuntime { return &SimRuntime{Sim: sim} }

func (r *SimRuntime) Now() time.Duration        { return r.Sim.Now() }
func (r *SimRuntime) Sleep(d time.Duration)     { r.Sim.Sleep(d) }
func (r *SimRuntime) Go(name string, fn func()) { r.Sim.Go(name, fn) }
func (r *SimRuntime) After(d time.Duration, fn func()) func() {
	ev := r.Sim.After(d, fn)
	return func() { ev.Cancel() }
}

func (r *SimRuntime) NewInbox(name string) Inbox {
	return &simInbox{ch: vclock.NewChan[Message](r.Sim, name)}
}

type simInbox struct{ ch *vclock.Chan[Message] }

func (b *simInbox) Recv() (Message, bool)                       { return b.ch.Recv() }
func (b *simInbox) RecvTimeout(d time.Duration) (Message, bool) { return b.ch.RecvTimeout(d) }
func (b *simInbox) TryRecv() (Message, bool)                    { return b.ch.TryRecv() }

// Send drops messages arriving after Close (mailbox semantics, like
// realInbox): a component torn down by an incremental redeploy must not
// crash late senders.
func (b *simInbox) Send(m Message) { b.ch.TrySend(m) }
func (b *simInbox) Close()         { b.ch.Close() }

// ---- Real-time runtime ----

// RealRuntime implements Runtime on the wall clock, for running NWS
// components over real sockets.
type RealRuntime struct{ epoch time.Time }

// NewRealRuntime returns a runtime whose Now starts at zero.
func NewRealRuntime() *RealRuntime { return &RealRuntime{epoch: time.Now()} }

func (r *RealRuntime) Now() time.Duration        { return time.Since(r.epoch) }
func (r *RealRuntime) Sleep(d time.Duration)     { time.Sleep(d) }
func (r *RealRuntime) Go(name string, fn func()) { go fn() }
func (r *RealRuntime) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

func (r *RealRuntime) NewInbox(name string) Inbox {
	return &realInbox{ch: make(chan Message, 1024), done: make(chan struct{})}
}

type realInbox struct {
	ch   chan Message
	done chan struct{}
	once sync.Once
}

func (b *realInbox) Recv() (Message, bool) {
	select {
	case m := <-b.ch:
		return m, true
	case <-b.done:
		// Drain any residual buffered message first.
		select {
		case m := <-b.ch:
			return m, true
		default:
			return Message{}, false
		}
	}
}

func (b *realInbox) RecvTimeout(d time.Duration) (Message, bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case m := <-b.ch:
		return m, true
	case <-b.done:
		select {
		case m := <-b.ch:
			return m, true
		default:
			return Message{}, false
		}
	case <-t.C:
		return Message{}, false
	}
}

func (b *realInbox) TryRecv() (Message, bool) {
	select {
	case m := <-b.ch:
		return m, true
	default:
		return Message{}, false
	}
}

func (b *realInbox) Send(m Message) {
	select {
	case b.ch <- m:
	case <-b.done:
	}
}

func (b *realInbox) Close() { b.once.Do(func() { close(b.done) }) }
