package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"hcoc/client"
)

// subWindows is how many equal parts a window's statistics are taken
// over: an end-to-end figure is the median of the parts' figures, so a
// burst of outside load in a part or two does not move it.
const subWindows = 10

// memEvery is the memory sampling interval.
const memEvery = 10 * time.Millisecond

// opRec is one finished request: its latency in ms (+Inf when it
// failed: a failed op misses every latency limit) and when it ended.
type opRec struct {
	kind string
	ms   float64
	end  time.Duration
}

// unitRec is one loop unit's span, relative to the phase start.
type unitRec struct{ start, end time.Duration }

// clientTally is one client's share of a window.
type clientTally struct {
	start     time.Time
	ops       []opRec
	units     []unitRec
	attempted int
	failed    int
	errs      []string
}

// maxErrs bounds the failed-op messages kept per client.
const maxErrs = 5

func (t *clientTally) record(kind string, d time.Duration, err error) {
	t.attempted++
	v := ms(d)
	if err != nil {
		t.failed++
		v = math.Inf(1)
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", kind, err))
		}
	}
	t.ops = append(t.ops, opRec{kind: kind, ms: v, end: time.Since(t.start)})
}

// memSample is the Go runtime's memory held from the OS at one instant.
type memSample struct {
	at    time.Duration
	bytes uint64
}

// phaseResult is one measured window.
type phaseResult struct {
	start         time.Time
	window        time.Duration
	clients       []clientTally
	mem           []memSample
	attempted     int
	failed        int
	errs          []string
	before, after counters

	// probe tracks the host's speed; slotRef is its median reference
	// time in each second of the phase. With scaled set, latencies and
	// rates are scaled to the nominal host speed (see probe.go).
	probe   *probe
	slotRef []float64
	scaled  bool
}

// runPhase runs every client's closed loop until the window ends; a
// client finishes the loop unit it is in.
func runPhase(ctx context.Context, w workload, s *stack, c *client.Client, pr *probe, phase int, window time.Duration, tr *tracer) *phaseResult {
	loops := make([]loop, w.clients())
	for i := range loops {
		loops[i] = w.loop(i, phase)
	}
	ph := &phaseResult{window: window, clients: make([]clientTally, len(loops)), probe: pr}
	runtime.GC()
	ph.before = snapshot(s.engines())
	start := time.Now()
	ph.start = start
	deadline := start.Add(window)
	stop := make(chan struct{})
	sampled := make(chan []memSample)
	go sampleMemory(start, stop, sampled)
	var wg sync.WaitGroup
	for i := range loops {
		ph.clients[i].start = start
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &ph.clients[i]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				from := time.Since(start)
				loops[i].unit(ctx, c, tr, t.record)
				t.units = append(t.units, unitRec{start: from, end: time.Since(start)})
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	ph.mem = <-sampled
	for at := start; at.Before(time.Now()); at = at.Add(time.Second) {
		ph.slotRef = append(ph.slotRef, pr.refMS(at, at.Add(time.Second)))
	}
	ph.after = snapshot(s.engines())
	for _, t := range ph.clients {
		ph.attempted += t.attempted
		ph.failed += t.failed
		ph.errs = append(ph.errs, t.errs...)
	}
	return ph
}

// sampleMemory samples the runtime's memory (everything mapped minus
// what was released back to the OS) until stop closes, then sends the
// samples.
func sampleMemory(start time.Time, stop <-chan struct{}, out chan<- []memSample) {
	m := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(memEvery)
	defer tick.Stop()
	var got []memSample
	for {
		metrics.Read(m)
		got = append(got, memSample{at: time.Since(start), bytes: m[0].Value.Uint64() - m[1].Value.Uint64()})
		select {
		case <-stop:
			out <- got
			return
		case <-tick.C:
		}
	}
}

// part returns the bounds of part i of the window cut into k; the last
// part also takes the units that straddle the window's end.
func (ph *phaseResult) part(i, k int) (from, to time.Duration) {
	w := ph.window / time.Duration(k)
	from, to = time.Duration(i)*w, time.Duration(i+1)*w
	if i == k-1 {
		to = math.MaxInt64
	}
	return from, to
}

// acrossParts is the median of f over the window cut into k equal
// parts. k is fixed per figure, never chosen from the data, so every
// run reports the same statistic however fast the program is.
func (ph *phaseResult) acrossParts(k int, f func(from, to time.Duration) float64) float64 {
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = f(ph.part(i, k))
	}
	return median(vals)
}

// scaledView is the phase with its latencies and rates scaled to the
// nominal host speed.
func (ph *phaseResult) scaledView() *phaseResult {
	sc := *ph
	sc.scaled = true
	return &sc
}

// refAt is the probe's reference time in the second in which d falls.
func (ph *phaseResult) refAt(d time.Duration) float64 {
	i := min(int(d/time.Second), len(ph.slotRef)-1)
	return ph.slotRef[max(i, 0)]
}

// latencies returns the sorted latencies of kind's ops that ended in
// [from, to), each scaled by the host speed of the second it ended in
// when the view is scaled.
func (ph *phaseResult) latencies(kind string, from, to time.Duration) []float64 {
	var out []float64
	for _, t := range ph.clients {
		for _, o := range t.ops {
			if o.kind == kind && o.end >= from && o.end < to {
				v := o.ms
				if ph.scaled {
					v *= refNominal / ph.refAt(o.end)
				}
				out = append(out, v)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// rate is the loop units per second over [from, to), to clipped to the
// window: every unit counts for the share of its time that falls in the
// range, so a range shorter than a unit still gets its share of work.
// A scaled view scales it by the host speed over the range.
func (ph *phaseResult) rate(from, to time.Duration) float64 {
	to = min(to, ph.window)
	var n float64
	for _, t := range ph.clients {
		for _, u := range t.units {
			if in := min(u.end, to) - max(u.start, from); in > 0 {
				n += float64(in) / float64(u.end-u.start)
			}
		}
	}
	r := n / (to - from).Seconds()
	if ph.scaled {
		r *= ph.probe.refMS(ph.start.Add(from), ph.start.Add(to)) / refNominal
	}
	return r
}

// unitsPerSecond is the median rate over subWindows parts.
func (ph *phaseResult) unitsPerSecond() float64 {
	return ph.acrossParts(subWindows, ph.rate)
}

// meanUnit is the mean loop-unit time in ms over the whole window.
func (ph *phaseResult) meanUnit() float64 {
	var busy time.Duration
	n := 0
	for _, t := range ph.clients {
		for _, u := range t.units {
			busy += u.end - u.start
			n++
		}
	}
	return frac(ms(busy), float64(n))
}

// stat is a fixed latency statistic: the nearest-rank q-quantile of
// each of parts equal parts of the window, reported as their median
// (parts = 1: the quantile over the whole window).
type stat struct {
	q     float64
	parts int
}

// String names the statistic, as in "p90, median of 5 sub-windows".
func (st stat) String() string {
	if st.parts == 1 {
		return fmt.Sprintf("p%.4g, whole window", 100*st.q)
	}
	return fmt.Sprintf("p%.4g, median of %d sub-windows", 100*st.q, st.parts)
}

// p50 is every median latency figure.
var p50 = stat{0.5, subWindows}

// latency is kind's latency under st, with the number of samples. A
// part in which no such request ended counts as an infinite latency,
// and an infinite figure (failed ops) is reported as the window.
func (ph *phaseResult) latency(kind string, st stat) (float64, int) {
	v := ph.acrossParts(st.parts, func(from, to time.Duration) float64 {
		s := ph.latencies(kind, from, to)
		if len(s) == 0 {
			return math.Inf(1)
		}
		return quantile(s, st.q)
	})
	return capped(v, ph.window), len(ph.latencies(kind, 0, math.MaxInt64))
}

// peakMemMB is the median over subWindows parts of each one's peak
// sampled memory, in MB.
func (ph *phaseResult) peakMemMB() float64 {
	return ph.acrossParts(subWindows, func(from, to time.Duration) float64 {
		var peak uint64
		for _, m := range ph.mem {
			if m.at >= from && m.at < to && m.bytes > peak {
				peak = m.bytes
			}
		}
		return float64(peak) / (1 << 20)
	})
}

// quantile is the nearest-rank q-quantile of sorted (0 for none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// capped replaces an infinite latency (a failed op) by the window.
func capped(v float64, window time.Duration) float64 {
	if math.IsInf(v, 1) {
		return ms(window)
	}
	return v
}
