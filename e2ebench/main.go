// Command e2ebench is the repository's end-to-end benchmark. It builds
// the serving stack in process from the constructors hcoc-serve and
// hcoc-gateway use (engine.New with the serve defaults over
// store.OpenBackend, serve.NewServer, and for gateway_read gateway.New
// over three backends sharing one s3stub bucket), serves it on loopback
// listeners, and drives it through the public client SDK with a closed
// loop of clients that each wait for their reply.
//
//	e2ebench --workload <release_fresh|read_mix|ingest|gateway_read> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// Every input follows from --seed. After the timed window the program's
// outputs are checked against local recomputation; any mismatch makes
// the run incorrect and the exit status 1. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the window is split into an untraced and a traced half on
// the same seed, and the metrics are the per-layer ones, computed from
// spans the benchmark records around the calls it makes into each layer
// and from direct replays of the run's inputs. The spans are written to
// .bench_build/spans. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the untraced run's metrics in BENCHMARK.json order;
// every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"peak_mem_mb", "MB", "lower"},
}

// setups is how many times a run sets the stack up; setup_s is their
// median.
const setups = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	workDir  string
	spansDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "release_fresh, read_mix, ingest or gateway_read")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input follows from it")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: split the window into an untraced and a traced half and report per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "work"), "scratch directory for the stacks' stores")
	flag.StringVar(&cfg.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where traced runs write their spans")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = setups
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runLimit bounds a whole run (set-ups, window, checks and replays), so
// a wedged stack still ends the run within three minutes.
const runLimit = 170 * time.Second

// run sets the stack up, measures, checks the outputs and tears down.
// Human-readable lines go to out and progress to log; the result is
// returned for the caller to print.
func run(cfg config, out, log io.Writer) (result, error) {
	if cfg.setups < 1 || cfg.seconds <= 0 {
		return result{}, errors.New("--seconds and the set-up count must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	pr := startProbe()
	defer pr.close()

	// Set up cfg.setups times from nothing and keep the last stack.
	// setupS holds each set-up's time, scaledS the same scaled to the
	// nominal host speed.
	var s *stack
	var setupS, scaledS []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		var tr *tracer
		if cfg.trace {
			tr = newTracer()
		}
		start := time.Now()
		s, err = newStack(filepath.Join(runDir, fmt.Sprintf("setup%d", i)), w.gateway(), tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		c, err := s.client()
		if err == nil {
			err = w.prepare(ctx, c)
		}
		end := time.Now()
		setupS = append(setupS, end.Sub(start).Seconds())
		scaledS = append(scaledS, end.Sub(start).Seconds()*refNominal/pr.refMS(start, end))
		if err != nil {
			s.close()
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	defer s.close()
	c, err := s.client()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "e2ebench: %s seed %d: set up %d times, measuring %gs with %d clients\n",
		cfg.workload, cfg.seed, cfg.setups, cfg.seconds, w.clients())

	window := time.Duration(cfg.seconds * float64(time.Second))
	var phases []*phaseResult
	if !cfg.trace {
		phases = append(phases, runPhase(ctx, w, s, c, pr, 0, window, nil))
	} else {
		phases = append(phases, runPhase(ctx, w, s, c, pr, 0, window/2, nil))
		s.tr.on.Store(true)
		phases = append(phases, runPhase(ctx, w, s, c, pr, 1, window/2, s.tr))
		s.tr.on.Store(false)
	}
	rssMB := peakRSSMB()
	last := phases[len(phases)-1]

	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
	}
	if err := w.verify(ctx, c); err != nil {
		res.Correct = false
		fmt.Fprintf(out, "# output check FAILED: %v\n", err)
	} else {
		fmt.Fprintln(out, "# output checks passed")
	}
	for _, ph := range phases {
		for _, e := range ph.errs {
			fmt.Fprintf(out, "# failed op: %s\n", e)
		}
	}

	printNamed(out, cfg.workload, last, setupS, rssMB)
	if !cfg.trace {
		kind, tailStat := w.primary()
		sc := last.scaledView()
		mid, _ := sc.latency(kind, p50)
		tail, n := sc.latency(kind, tailStat)
		e2e := map[string]float64{
			"setup_s":     median(scaledS),
			"ops_per_s":   sc.unitsPerSecond(),
			"p50_ms":      mid,
			"tail_ms":     tail,
			"peak_mem_mb": last.peakMemMB(),
		}
		fmt.Fprintf(out, "# p50_ms and tail_ms are %s latency; tail_ms is its %s (n=%d)\n", kind, tailStat, n)
		fmt.Fprintf(out, "# setup_s, ops_per_s, p50_ms and tail_ms are scaled to the nominal host speed:\n")
		for _, m := range endToEnd {
			fmt.Fprintf(out, "# %-22s %12.4f %s\n", m.name, e2e[m.name], m.unit)
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		return res, nil
	}

	spans := s.tr.snapshot()
	layers := layerMetrics(last, phases[0], spans, s.tr.s3Requests.Load())
	replayed, err := w.replay(ctx, s, c)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	for k, v := range replayed {
		layers[k] = v
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		fmt.Fprintf(out, "# layer %-34s %14.4f %s\n", m.name, layers[m.name], m.unit)
	}
	printSelfTimes(out, spans, last.attempted)
	fmt.Fprintf(out, "# tracing overhead: %.2f%% of mean loop-unit time (untraced %.4f ms, traced %.4f ms, same seed)\n",
		layers["trace.overhead_pct"], phases[0].meanUnit(), last.meanUnit())
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
	return res, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printNamed prints the workload's per-op end-to-end figures under the
// names the metric map in README.md uses.
func printNamed(out io.Writer, workload string, ph *phaseResult, setupS []float64, rssMB float64) {
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(out, "# %-22s %12.4f %-4s %s\n", name, v, unit, note)
	}
	lat := func(kind string, stats ...stat) {
		for _, st := range append([]stat{p50}, stats...) {
			v, n := ph.latency(kind, st)
			line(fmt.Sprintf("%s_p%.4g_ms", kind, 100*st.q), v, "ms", fmt.Sprintf("(%s, n=%d)", st, n))
		}
	}
	fmt.Fprintf(out, "# figures as measured, host reference %.4f ms (nominal %.4g ms; by second: %s)\n",
		median(ph.slotRef), refNominal, joinFloats(ph.slotRef))
	line("setup_s", median(setupS), "s", fmt.Sprintf("(median of %d set-ups)", len(setupS)))
	switch workload {
	case "release_fresh":
		lat("release", releaseTail)
		line("releases_per_s", ph.unitsPerSecond(), "1/s", "")
	case "read_mix", "gateway_read":
		lat("query", queryTail, stat{0.99, 1})
		lat("batch")
		lat("cross")
		lat("download")
		line("reads_per_s", ph.unitsPerSecond(), "1/s", "")
	case "ingest":
		lat("append", appendTail)
		lat("head_release")
		line("ingest_cycles_per_s", ph.unitsPerSecond(), "1/s", "")
	}
	var parts []float64
	for i := 0; i < subWindows; i++ {
		parts = append(parts, ph.rate(ph.part(i, subWindows)))
	}
	fmt.Fprintf(out, "# units per second by sub-window: %s\n", joinFloats(parts))
	line("peak_mem_mb", ph.peakMemMB(), "MB", fmt.Sprintf("(median of %d sub-window peaks)", subWindows))
	line("peak_rss_mb", rssMB, "MB", "(process VmHWM, set-ups included)")
	line("ops_attempted", float64(ph.attempted), "", "")
	line("ops_failed", float64(ph.failed), "", "")
}

// printSelfTimes prints every span name's count, its mean busy and
// self time per span, and its self time per benchmark op.
func printSelfTimes(out io.Writer, spans []span, ops int) {
	fmt.Fprintf(out, "# self times over %d ops: span, count, busy us/span, self us/span, self us/op\n", ops)
	for _, lt := range selfTimes(spans) {
		n := float64(lt.n)
		fmt.Fprintf(out, "# self %-24s %8d %12.1f %12.1f %12.1f\n", lt.name, lt.n,
			float64(lt.total)/1e3/n, float64(lt.own)/1e3/n, frac(float64(lt.own)/1e3, float64(ops)))
	}
}

// joinFloats formats xs to four significant digits, space-separated.
func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
