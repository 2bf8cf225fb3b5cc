package main

import (
	"reflect"
	"testing"
	"time"
)

// TestScaledView pins the scaling to the nominal host speed: a latency
// is multiplied by refNominal over the reference time of the second it
// ended in, a rate by the inverse over its range, and the unscaled view
// is left as measured.
func TestScaledView(t *testing.T) {
	start := time.Now()
	pr := &probe{samples: []probeSample{
		{at: start.Add(500 * time.Millisecond), ms: refNominal},
		{at: start.Add(1500 * time.Millisecond), ms: 2 * refNominal},
	}}
	ph := &phaseResult{
		start:  start,
		window: 2 * time.Second,
		probe:  pr,
		clients: []clientTally{{
			ops: []opRec{
				{kind: "query", ms: 10, end: 500 * time.Millisecond},
				{kind: "query", ms: 10, end: 1500 * time.Millisecond},
			},
			units: []unitRec{{0, time.Second}, {time.Second, 2 * time.Second}},
		}},
	}
	for at := start; at.Before(start.Add(ph.window)); at = at.Add(time.Second) {
		ph.slotRef = append(ph.slotRef, pr.refMS(at, at.Add(time.Second)))
	}
	if got, want := ph.latencies("query", 0, ph.window), []float64{10, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("measured latencies %v, want %v", got, want)
	}
	sc := ph.scaledView()
	if got, want := sc.latencies("query", 0, ph.window), []float64{5, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("scaled latencies %v, want %v", got, want)
	}
	for i, want := range []float64{1, 2} {
		from, to := time.Duration(i)*time.Second, time.Duration(i+1)*time.Second
		if got := ph.rate(from, to); got != 1 {
			t.Errorf("measured rate in second %d = %g, want 1", i, got)
		}
		if got := sc.rate(from, to); got != want {
			t.Errorf("scaled rate in second %d = %g, want %g", i, got, want)
		}
	}
}

// TestProbe checks that a running probe samples the reference and
// stops when closed, and that a probe without samples scales nothing.
func TestProbe(t *testing.T) {
	if ref := (&probe{}).refMS(time.Time{}, time.Now()); ref != refNominal {
		t.Errorf("reference time without samples %g ms, want refNominal %g", ref, refNominal)
	}
	pr := startProbe()
	time.Sleep(10 * probeEvery)
	pr.close()
	if n := len(pr.samples); n == 0 {
		t.Fatal("the probe took no sample")
	}
	if ref := pr.refMS(time.Time{}, time.Now()); ref <= 0 {
		t.Errorf("reference time %g ms, want > 0", ref)
	}
}
