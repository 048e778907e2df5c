// Package nameserver implements the NWS name server: the directory every
// other NWS process registers with and queries to locate its peers
// (§2.1: "The name server keeps a directory of the system, allowing each
// part to localize other existing servers").
package nameserver

import (
	"errors"
	"sort"
	"strings"
	"time"

	"nwsenv/internal/nws/proto"
)

// DefaultTTL is applied to registrations that do not specify one.
const DefaultTTL = 30 * time.Minute

// Server is a running name server bound to a station.
type Server struct {
	st      proto.Port
	entries map[string]proto.Registration
}

// New creates a name server on st. Call Run (usually via rt.Go) to serve.
func New(st proto.Port) *Server {
	return &Server{st: st, entries: map[string]proto.Registration{}}
}

// Run serves requests until the station closes.
func (s *Server) Run() {
	for {
		req, ok := s.st.Recv()
		if !ok {
			return
		}
		switch req.Type {
		case proto.MsgRegister:
			s.handleRegister(req)
		case proto.MsgRegisterBulk:
			s.handleRegisterBulk(req)
		case proto.MsgUnregister:
			delete(s.entries, req.Name)
			s.st.Reply(req, proto.Message{Type: proto.MsgRegisterAck})
		case proto.MsgLookup:
			s.handleLookup(req)
		case proto.MsgPing:
			s.st.Reply(req, proto.Message{Type: proto.MsgPong})
		default:
			s.st.ReplyError(req, "nameserver: unexpected %v", req.Type)
		}
	}
}

func (s *Server) handleRegister(req proto.Message) {
	reg := req.Reg
	if reg.Name == "" {
		s.st.ReplyError(req, "nameserver: empty registration name")
		return
	}
	if reg.TTL <= 0 {
		reg.TTL = DefaultTTL
	}
	reg.Expires = s.st.Runtime().Now() + reg.TTL
	s.entries[reg.Name] = reg
	s.st.Reply(req, proto.Message{Type: proto.MsgRegisterAck})
}

// handleRegisterBulk creates or refreshes many entries in one
// round-trip: the directory-plane batching that keeps a host's per-tick
// series re-advertisement at one message regardless of how many series
// it owns. Entries without a name are skipped (a bulk refresh must not
// fail wholesale over one malformed entry); Count reports how many were
// accepted.
func (s *Server) handleRegisterBulk(req proto.Message) {
	now := s.st.Runtime().Now()
	accepted := 0
	for _, reg := range req.Regs {
		if reg.Name == "" {
			continue
		}
		if reg.TTL <= 0 {
			reg.TTL = DefaultTTL
		}
		reg.Expires = now + reg.TTL
		s.entries[reg.Name] = reg
		accepted++
	}
	s.st.Reply(req, proto.Message{Type: proto.MsgRegisterAck, Count: accepted})
}

func (s *Server) handleLookup(req proto.Message) {
	now := s.st.Runtime().Now()
	var out []proto.Registration
	if req.Name != "" {
		if e, ok := s.entries[req.Name]; ok {
			if e.Expires > now {
				out = append(out, e)
			} else {
				delete(s.entries, req.Name)
			}
		}
	} else {
		// Kind and/or prefix search. Deterministic order: sort by name.
		// Both slices are sized for the no-filter common case (the bulk
		// directory refresh) so a full listing grows nothing.
		names := make([]string, 0, len(s.entries))
		for n := range s.entries {
			names = append(names, n)
		}
		sort.Strings(names)
		out = make([]proto.Registration, 0, len(names))
		for _, n := range names {
			e := s.entries[n]
			if e.Expires <= now {
				delete(s.entries, n)
				continue
			}
			if req.Kind != "" && e.Kind != req.Kind {
				continue
			}
			if req.Series != "" && !strings.HasPrefix(n, req.Series) {
				continue
			}
			out = append(out, e)
		}
	}
	s.st.Reply(req, proto.Message{Type: proto.MsgLookupReply, Regs: out})
}

// Client wraps the directory operations every NWS process needs.
type Client struct {
	St      proto.Port
	NSHost  string
	Timeout time.Duration
}

// NewClient returns a directory client talking to the name server on
// nsHost.
func NewClient(st proto.Port, nsHost string) *Client {
	return &Client{St: st, NSHost: nsHost, Timeout: 10 * time.Second}
}

// Register creates or refreshes a directory entry.
func (c *Client) Register(reg proto.Registration) error {
	_, err := c.St.Call(c.NSHost, proto.Message{Type: proto.MsgRegister, Reg: reg}, c.Timeout)
	return err
}

// KeepRegistered re-registers reg at a third of the directory TTL until
// the station is torn down: the one registration-refresh loop every
// long-lived NWS role (memory server, forecaster, gateway) runs on its
// own runtime process so its directory entry outlives the TTL.
//
// onTick, when non-nil, runs after each successful refresh of reg — the
// hook a role uses to re-advertise dependent directory entries (a
// memory server re-registering the series it owns). A nil onTick keeps
// just reg alive.
//
// The retry/exit policy lives here and only here. Transient failures —
// a timed-out refresh over a degraded link, a callback that could not
// reach the directory — are retried on the next tick: one lost refresh
// must not silently drop a live server from the directory forever.
// Only proto.ErrClosed, from the refresh or from the callback, ends the
// loop: that is the definitive station-teardown signal.
func (c *Client) KeepRegistered(reg proto.Registration, onTick func() error) {
	for {
		c.St.Runtime().Sleep(DefaultTTL / 3)
		if err := c.Register(reg); err != nil {
			if errors.Is(err, proto.ErrClosed) {
				return
			}
			continue
		}
		if onTick == nil {
			continue
		}
		if err := onTick(); errors.Is(err, proto.ErrClosed) {
			return
		}
	}
}

// RegisterBulk creates or refreshes many directory entries in one
// round-trip. It returns how many entries the server accepted.
func (c *Client) RegisterBulk(regs []proto.Registration) (int, error) {
	if len(regs) == 0 {
		return 0, nil
	}
	reply, err := c.St.Call(c.NSHost, proto.Message{Type: proto.MsgRegisterBulk, Regs: regs}, c.Timeout)
	if err != nil {
		return 0, err
	}
	return reply.Count, nil
}

// Unregister removes an entry by name.
func (c *Client) Unregister(name string) error {
	_, err := c.St.Call(c.NSHost, proto.Message{Type: proto.MsgUnregister, Name: name}, c.Timeout)
	return err
}

// LookupName finds the entry with exactly the given name.
func (c *Client) LookupName(name string) (proto.Registration, bool, error) {
	reply, err := c.St.Call(c.NSHost, proto.Message{Type: proto.MsgLookup, Name: name}, c.Timeout)
	if err != nil {
		return proto.Registration{}, false, err
	}
	if len(reply.Regs) == 0 {
		return proto.Registration{}, false, nil
	}
	return reply.Regs[0], true, nil
}

// LookupKind lists entries of a kind, optionally filtered by name
// prefix. The result is deterministically sorted by name regardless of
// the server's iteration order, so discovery caches and CLI output stay
// stable across runs and server implementations.
func (c *Client) LookupKind(kind, prefix string) ([]proto.Registration, error) {
	reply, err := c.St.Call(c.NSHost, proto.Message{Type: proto.MsgLookup, Kind: kind, Series: prefix}, c.Timeout)
	if err != nil {
		return nil, err
	}
	regs := reply.Regs
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs, nil
}
