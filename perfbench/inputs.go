package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nwsenv/internal/nws/proto"
)

// inputs are the generated series a workload stores and queries. Every
// name, owner and sample value is a function of the workload seed, so
// the program under test only ever sees generated data.
type inputs struct {
	seed  int64
	names []string
	owner []int // index of the memory server each series is stored on
	index map[string]int
}

// makeInputs draws n series names and assigns each to one of owners
// memory servers. prefix gives names the monitoring vocabulary's shape.
func makeInputs(seed int64, n, owners int, prefix string) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, index: map[string]int{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s.n%03d-%06d", prefix, i, rng.Intn(1000000))
		in.names = append(in.names, name)
		in.owner = append(in.owner, rng.Intn(owners))
		in.index[name] = i
	}
	return in
}

// value is the k-th sample of series i: a deterministic hash of
// (seed, i, k) scaled into [0, 100).
func (in *inputs) value(i, k int) float64 {
	x := uint64(in.seed)*0x9e3779b97f4a7c15 ^ uint64(i)<<32 ^ uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return math.Floor(float64(x>>11)/(1<<53)*1e6) / 1e4
}

// samples returns samples [from, to) of series i; sample k is stamped
// k seconds into the series.
func (in *inputs) samples(i, from, to int) []proto.Sample {
	out := make([]proto.Sample, 0, to-from)
	for k := from; k < to; k++ {
		out = append(out, proto.Sample{At: time.Duration(k) * time.Second, Value: in.value(i, k)})
	}
	return out
}

// check verifies that every answered sample of series equals what the
// generator stored, and that want samples came back (want <= 0: any
// non-empty answer).
func (in *inputs) check(series string, got []proto.Sample, want int) error {
	i, ok := in.index[series]
	if !ok {
		return fmt.Errorf("answer for unrequested series %q", series)
	}
	if len(got) == 0 || (want > 0 && len(got) != want) {
		return fmt.Errorf("series %s: %d samples, want %d", series, len(got), want)
	}
	for _, s := range got {
		k := int(s.At / time.Second)
		if s.At%time.Second != 0 || s.Value != in.value(i, k) {
			return fmt.Errorf("series %s: sample at %v = %v, stored %v", series, s.At, s.Value, in.value(i, k))
		}
	}
	return nil
}

// batch draws size distinct series requests of count samples each.
func (in *inputs) batch(rng *rand.Rand, size, count int) []proto.SeriesRequest {
	reqs := make([]proto.SeriesRequest, 0, size)
	for _, i := range rng.Perm(len(in.names))[:size] {
		reqs = append(reqs, proto.SeriesRequest{Series: in.names[i], Count: count})
	}
	return reqs
}
