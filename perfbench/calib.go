package main

import (
	"runtime"
	"sort"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over tens of seconds: a neighbour's load on the same cores
// slows every instruction, so CPU time inflates with wall time and no
// amount of repetition inside one run averages it away. Each simulated
// instance is therefore bracketed by a reference unit: a fixed piece of
// work built only from the Go runtime and standard library, which no
// change to the program under test can speed up or slow down. An
// instance's wall and CPU figures are scaled by refNominal over the mean
// of its two brackets' times, so the host's drift cancels while a change
// in the program's own cost does not. The unscaled figures are printed
// beside the result for comparison. tcp-query is not scaled: its cost is
// set by wake-ups and the garbage collector, which the unit does not
// track.

// refNominal is the reference unit's time on the host the benchmark was
// sized on (a 2-CPU Xeon VM at 2.1 GHz), so scaled figures read in that
// host's units.
const refNominal = 40 * time.Millisecond

// refNode is the reference unit's map element.
type refNode struct {
	k   int
	pad [6]int
}

// refSink keeps the reference unit's results live.
var refSink int

// refUnit runs the reference unit once from a freshly collected heap
// and returns its wall time: map inserts and deletes of small
// allocations, sorts, and a channel ping-pong between two goroutines,
// the mix of work the simulated and TCP stacks do. Its live heap stays
// under a megabyte, so it does not raise the process's peak RSS.
func refUnit() time.Duration {
	runtime.GC()
	t0 := time.Now()
	x := uint64(12345)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := map[int]*refNode{}
	for i := 0; i < 150000; i++ {
		n := &refNode{k: int(next() % 4096)}
		m[n.k] = n
		if i%2 == 0 {
			delete(m, int((next()>>8)%4096))
		}
	}
	refSink += len(m)
	s := make([]int, 20000)
	for r := 0; r < 5; r++ {
		for i := range s {
			s[i] = int(next())
		}
		sort.Ints(s)
		refSink += s[0]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < 20000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	refSink += v
	return time.Since(t0)
}

// calib brackets consecutive instances with reference units; the unit
// that closes one instance opens the next.
type calib struct {
	last time.Duration
	refs []float64 // every reference unit's time, ms
}

// unit runs one reference unit and records its time.
func (c *calib) unit() time.Duration {
	t := refUnit()
	c.refs = append(c.refs, ms(t))
	return t
}

// open runs the unit that opens the first instance.
func (c *calib) open() { c.last = c.unit() }

// close runs the unit that closes the instance just measured and
// returns that instance's scale: refNominal over the mean of its two
// brackets. A figure in time (CPU per query, set-up) is multiplied by
// the scale, a rate is divided by it.
func (c *calib) close() float64 {
	now := c.unit()
	mean := (c.last + now) / 2
	c.last = now
	return float64(refNominal) / float64(mean)
}
