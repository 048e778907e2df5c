package proto

import (
	"nwsenv/internal/telemetry"
)

// wireStats pre-resolves the codec telemetry instruments once, so the
// hot send/receive paths increment plain atomics instead of hitting the
// registry's keyed map on every message. A nil *wireStats (telemetry
// not wired) no-ops everywhere, matching the registry's own nil
// contract.
type wireStats struct {
	enc      *telemetry.Counter // proto/encode_total{version=3}
	bytesOut *telemetry.Counter
	bytesIn  *telemetry.Counter
}

func newWireStats(reg *telemetry.Registry) *wireStats {
	if reg == nil {
		return nil
	}
	return &wireStats{
		enc:      reg.Counter("proto", "encode_total", map[string]string{"version": "3"}),
		bytesOut: reg.Counter("proto", "bytes_out", nil),
		bytesIn:  reg.Counter("proto", "bytes_in", nil),
	}
}

// encoded records one message of n framed bytes put on a wire.
func (w *wireStats) encoded(n int64) {
	if w == nil {
		return
	}
	w.enc.Add(1)
	w.bytesOut.Add(n)
}

// received records n bytes taken off a wire.
func (w *wireStats) received(n int64) {
	if w == nil {
		return
	}
	w.bytesIn.Add(n)
}
