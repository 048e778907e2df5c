package proto

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"nwsenv/internal/telemetry"
)

// crossRegister copies listen addresses between two transports so
// endpoints opened on one can dial endpoints opened on the other —
// two transports stand in for two separately-built binaries.
func crossRegister(a, b *TCPTransport) {
	a.mu.Lock()
	b.mu.Lock()
	for h, addr := range b.addrs {
		a.addrs[h] = addr
	}
	for h, addr := range a.addrs {
		b.addrs[h] = addr
	}
	b.mu.Unlock()
	a.mu.Unlock()
}

// batchEchoServer answers every BatchFetch with a fixed two-series
// reply, so tests can verify payload fidelity across the wire.
func batchEchoServer(st *Station) {
	for {
		req, ok := st.Recv()
		if !ok {
			return
		}
		st.Reply(req, Message{
			Type: MsgBatchFetchReply,
			Results: []SeriesResult{
				{Series: "cpu.a", Samples: []Sample{{At: time.Second, Value: 1.5}, {At: 2 * time.Second, Value: -2.25}}},
				{Series: "cpu.b", Error: "gone", Code: CodeUnknownSeries},
			},
		})
	}
}

func wantResults() []SeriesResult {
	return []SeriesResult{
		{Series: "cpu.a", Samples: []Sample{{At: time.Second, Value: 1.5}, {At: 2 * time.Second, Value: -2.25}}},
		{Series: "cpu.b", Error: "gone", Code: CodeUnknownSeries},
	}
}

func interopCall(t *testing.T, from *Station, to string) {
	t.Helper()
	reply, err := from.Call(to, Message{Type: MsgBatchFetch,
		Queries: []SeriesRequest{{Series: "cpu.a", Count: 2}, {Series: "cpu.b"}}}, 5*time.Second)
	if err != nil {
		t.Fatalf("call %s: %v", to, err)
	}
	if !reflect.DeepEqual(reply.Results, wantResults()) {
		t.Fatalf("call %s: results %+v", to, reply.Results)
	}
}

// TestInteropV3BothEnds: two transports pass the hello check, carry
// compact frames, and the telemetry counters record version-3 encodes
// with byte accounting on both directions.
func TestInteropV3BothEnds(t *testing.T) {
	reg := telemetry.New(nil)
	trA, trB := NewTCPTransport(), NewTCPTransport()
	trA.SetTelemetry(reg)
	trB.SetTelemetry(reg)
	epA, err := trA.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := trB.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	crossRegister(trA, trB)
	sa, sb := NewStation(trA.Runtime(), epA), NewStation(trB.Runtime(), epB)
	defer sa.Close()
	defer sb.Close()
	go batchEchoServer(sb)

	interopCall(t, sa, "b")

	// The replying side counts its encode after its write returns, so
	// the reply can arrive before that count lands: wait for it.
	var flat map[string]float64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		flat = reg.Snapshot().Flatten()
		if flat["proto/encode_total{version=3}"] >= 2 || time.Now().After(deadline) {
			break
		}
	}
	if flat["proto/encode_total{version=3}"] < 2 { // request + reply
		t.Fatalf("want >=2 v3 encodes, metrics %v", flat)
	}
	if flat["proto/bytes_out"] <= 0 || flat["proto/bytes_in"] <= 0 {
		t.Fatalf("byte counters not moving: %v", flat)
	}
}

// TestHandshakeRejectsForeignDialers: a dialer that skips the hello
// (raw frames from byte zero) and a dialer offering wire version 2 both
// get their connection closed without an answer, and nothing they sent
// reaches the inbox.
func TestHandshakeRejectsForeignDialers(t *testing.T) {
	tr := NewTCPTransport()
	ep, err := tr.Open("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addr, _ := tr.Addr("srv")

	m := Message{Type: MsgStore, From: "stray", ID: 7, Series: "cpu.x",
		Samples: []Sample{{At: 3 * time.Second, Value: 9.5}}}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(EncodedSize(&m)))
	frame = AppendEncode(frame, &m)
	for _, tc := range []struct {
		name  string
		opens []byte
	}{
		{"no magic", nil},
		{"version 2", []byte(wireMagic + "\x02")},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(append([]byte{}, tc.opens...), frame...)); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var b [1]byte
		n, err := conn.Read(b[:])
		if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: want the connection closed unanswered, got n=%d err=%v", tc.name, n, err)
		}
		conn.Close()
		if got, ok := ep.Inbox().TryRecv(); ok {
			t.Fatalf("%s: rejected dialer delivered %+v", tc.name, got)
		}
	}
}

// TestHelloStallClosed: a dialer that sends 2 of the 5 hello bytes and
// then stalls is closed by the acceptor once the hello deadline passes,
// instead of holding a goroutine until it disconnects.
func TestHelloStallClosed(t *testing.T) {
	t.Parallel()
	tr := NewTCPTransport()
	ep, err := tr.Open("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addr, _ := tr.Addr("srv")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(hello[:2]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout + 5*time.Second))
	var b [1]byte
	n, err := conn.Read(b[:])
	if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want the stalled connection closed by the acceptor, got n=%d err=%v", n, err)
	}
}

// TestSendToSilentListenerFails: a peer that accepts the connection but
// never answers the hello makes Send return an error once the hello
// deadline passes, instead of hanging with the connection lock held.
func TestSendToSilentListenerFails(t *testing.T) {
	t.Parallel()
	tr := NewTCPTransport()
	ep, err := tr.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Deferred after ep.Close, so it runs first: closing the listener
	// drops the held connections, which frees a Send that did hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // accept, read nothing, answer nothing
		}
	}()
	tr.mu.Lock()
	tr.addrs["silent"] = ln.Addr().String()
	tr.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- ep.Send("silent", Message{Type: MsgPing}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to a peer that never answered the hello succeeded")
		}
	case <-time.After(helloTimeout + 5*time.Second):
		t.Fatal("send to a silent peer hung past the hello deadline")
	}
}

// TestSelfSendCountsNoWireBytes: a message a host sends to itself
// crosses no wire, so on both transports it reaches the inbox without
// moving the codec counters.
func TestSelfSendCountsNoWireBytes(t *testing.T) {
	m := Message{Type: MsgPing, From: "a", Series: "cpu.a", Samples: []Sample{{At: time.Second, Value: 1}}}
	check := func(name string, tr interface {
		Transport
		SetTelemetry(*telemetry.Registry)
	}) {
		reg := telemetry.New(nil)
		tr.SetTelemetry(reg)
		ep, err := tr.Open("a")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		if err := ep.Send("a", m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, ok := ep.Inbox().TryRecv(); !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: self-send delivered %+v, %v", name, got, ok)
		}
		flat := reg.Snapshot().Flatten()
		for _, k := range []string{"proto/encode_total{version=3}", "proto/bytes_out", "proto/bytes_in"} {
			if flat[k] != 0 {
				t.Errorf("%s: %s = %v after a self-send, want 0", name, k, flat[k])
			}
		}
	}
	_, sim := pair(t)
	check("sim", sim)
	check("tcp", NewTCPTransport())
}
