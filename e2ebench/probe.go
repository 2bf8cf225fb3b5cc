package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few vCPUs of a shared machine,
// and its speed swings by up to 1.7x within a minute: a fixed
// computation's CPU time moves that much, so it is the host and not the
// scheduler. A timed figure taken as it is then says more about the
// neighbours than about the program. The probe tracks the host's speed
// while the benchmark runs: every probeEvery it times a fixed reference
// computation, of the benchmark's own and calling no program code, in
// the CPU time of its own thread (so neither waiting for the Go
// scheduler nor time the hypervisor takes the vCPU away counts). The
// timed end-to-end figures are then scaled to a host on which that
// computation takes refNominal: a latency by refNominal / reference
// time around it, a rate by the inverse.
const (
	probeEvery = 25 * time.Millisecond
	refNominal = 0.75 // ms
	refSort    = 2048
	refStream  = 1 << 19 // 4 MiB
)

// probeSample is one timed reference computation: when it ended and
// its thread CPU time in ms.
type probeSample struct {
	at time.Time
	ms float64
}

// probe runs the reference computation every probeEvery on a thread of
// its own until stopped.
type probe struct {
	mu      sync.Mutex
	samples []probeSample
	stop    chan struct{}
	done    chan struct{}
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *probe) run() {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]float64, refSort)
	stream := make([]uint64, refStream)
	for i := range stream {
		stream[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	var sink float64
	for {
		select {
		case <-p.stop:
			sinkRef = sink
			return
		case <-tick.C:
		}
		from := threadCPU()
		sink += reference(buf, stream)
		ms := float64(threadCPU()-from) / 1e6
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{at: time.Now(), ms: ms})
		p.mu.Unlock()
	}
}

// close stops the probe and waits for its goroutine.
func (p *probe) close() {
	close(p.stop)
	<-p.done
}

// refMS is the median reference time of the samples taken in
// [from, to), or of every sample so far when none was, or refNominal
// (no scaling) before the first sample.
func (p *probe) refMS(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var in, all []float64
	for _, s := range p.samples {
		all = append(all, s.ms)
		if !s.at.Before(from) && s.at.Before(to) {
			in = append(in, s.ms)
		}
	}
	switch {
	case len(in) > 0:
		return median(in)
	case len(all) > 0:
		return median(all)
	default:
		return refNominal
	}
}

// sinkRef keeps the reference computation's result alive.
var sinkRef float64

// reference is the fixed computation the probe times: one part that
// stays in the core's cache (sort refSort splitmix64 floats and sum
// them) and one that reads memory (one word of every cache line of a
// refStream-word buffer, larger than a core's own cache), so that
// both a slower core and contended memory show in its time.
func reference(buf []float64, stream []uint64) float64 {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range buf {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		buf[i] = float64(z^z>>31) / (1 << 64)
	}
	sort.Float64s(buf)
	var sum float64
	for i, v := range buf {
		sum += v * float64(i)
	}
	var words uint64
	for i := 0; i < len(stream); i += 8 {
		words += stream[i]
	}
	return sum + float64(words)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
