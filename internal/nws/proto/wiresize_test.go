package proto

import "testing"

// TestWireSizeExactForV3 pins the WireSize contract the simulator's
// byte accounting relies on: for every message shape the charge is the
// exact framed codec length, not an estimate. Drift between WireSize and the
// bytes the TCP transport actually writes would make the simulated and
// real planes disagree on every bandwidth figure.
func TestWireSizeExactForV3(t *testing.T) {
	for i, m := range codecShapes() {
		want := int64(len(AppendEncode(nil, &m))) + frameHeaderSize
		if got := m.WireSize(); got != want {
			t.Errorf("shape %d: WireSize=%d, framed codec length=%d", i, got, want)
		}
	}
}

// TestWireSizeEmptyMessage pins the frame layout's fixed cost: an
// empty Message is 27 one-byte zero fields (every scalar, string
// length and slice count in Message and its Reg) behind the 4-byte
// length prefix. A field added to Message moves this number.
func TestWireSizeEmptyMessage(t *testing.T) {
	if got := (&Message{}).WireSize(); got != 31 {
		t.Fatalf("empty Message WireSize = %d, want 31", got)
	}
}
