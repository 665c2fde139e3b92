// Command perfbench is the repository's end-to-end benchmark. It
// starts a fresh rrsd with default flags, drives one named workload
// against it over two connections, checks every response, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer split) as
// the last line of its output:
//
//	bash perfbench/run.sh --workload raster-f32 --seed 1 --seconds 25 --trace 0
//
// run.sh builds rrsd and this command from the checkout first. The
// workloads, metrics and exclusions are described in README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// An untraced run sets rrsd up from exec several times and reports the
// median as setup_s; the last daemon serves the window. It sets up at
// least minSetups times, and up to maxSetups while the setups so far
// took under setupBudget, so cheap set-ups get more samples.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// runBudget bounds a whole run, which must end within 180 s.
const runBudget = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	rrsd     string
	runDir   string
	srcRoot  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	b := &bench{opts: opts, w: workloads[opts.workload], out: stdout, errw: stderr}
	var res *output
	if opts.trace {
		res, err = b.traced(ctx)
	} else {
		res, err = b.untraced(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	//lint:ignore detflow the result line reports measured timings by design
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.rrsd, "rrsd", "", "rrsd binary to benchmark (required)")
	fs.StringVar(&o.runDir, "run-dir", ".bench_build/run", "scratch directory for port files and span dumps")
	fs.StringVar(&o.srcRoot, "src", ".", "repository root, for the build metadata")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if workloads[o.workload] == nil {
		return o, fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if !(o.seconds > 0) || o.seconds > 60 {
		return o, fmt.Errorf("--seconds %g: want (0, 60]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.rrsd == "" {
		return o, errors.New("--rrsd is required")
	}
	return o, os.MkdirAll(o.runDir, 0o755)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	opts options
	w    *workload
	out  io.Writer
	errw io.Writer
}

func (b *bench) window() time.Duration {
	return time.Duration(b.opts.seconds * float64(time.Second))
}

func (b *bench) sched(k int64) op { return b.w.op(b.opts.seed, k) }

// setup execs rrsd and brings it to the state the window starts from:
// healthy, the workload's scenes registered, warm-up fetched and
// prefetch idle. The returned duration runs from exec to that point.
func (b *bench) setup(ctx context.Context, n int) (*daemon, *client, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, b.opts.rrsd, b.opts.runDir, n)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.base)
	docs := b.w.scenes(b.opts.seed)
	for _, doc := range docs {
		id, err := c.register(ctx, doc)
		if err != nil {
			return b.abort(d, c, err)
		}
		c.ids = append(c.ids, id)
	}
	warm := b.w.warm(b.opts.seed)
	if err := c.runAll(ctx, warm); err != nil {
		return b.abort(d, c, err)
	}
	if len(warm) > 0 && warm[0].Pyramid {
		if err := c.awaitPrefetchIdle(ctx); err != nil {
			return b.abort(d, c, err)
		}
	}
	took := time.Since(t0)
	for i, doc := range docs {
		if want, err := sceneID(doc); err != nil || want != c.ids[i] {
			return b.abort(d, c, fmt.Errorf("setup scene %d: rrsd id %s, want %s (%v)", i, c.ids[i], want, err))
		}
	}
	return d, c, took, nil
}

func (b *bench) abort(d *daemon, c *client, err error) (*daemon, *client, time.Duration, error) {
	c.close()
	if serr := d.stop(); serr != nil {
		err = fmt.Errorf("%w; stopping rrsd: %v", err, serr)
	}
	return nil, nil, 0, err
}

// awaitPrefetchIdle waits until rrsd's prefetch queue is empty and its
// prefetch counters have held still for 50 ms (no job still running).
func (c *client) awaitPrefetchIdle(ctx context.Context) error {
	keys := []string{"rrsd_prefetch_queue_depth", "rrsd_prefetch_rendered_total", "rrsd_prefetch_dropped_total", "rrsd_prefetch_skipped_total"}
	var last []float64
	still := 0
	for still < 5 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		m, err := c.scrape(ctx)
		if err != nil {
			return err
		}
		cur := make([]float64, len(keys))
		for i, k := range keys {
			cur[i] = m[k]
		}
		if cur[0] == 0 && slices.Equal(cur, last) {
			still++
		} else {
			still = 0
		}
		last = cur
	}
	return nil
}

// drive runs the workload's schedule from op k0 for dur.
func (b *bench) drive(ctx context.Context, c *client, k0 int64, dur time.Duration, tr *tracer) ([]result, time.Duration) {
	if b.w.rate > 0 {
		return c.openLoop(ctx, b.sched, k0, b.w.rate, dur, tr)
	}
	return c.closedLoop(ctx, b.sched, k0, dur, tr)
}

// verify fetches the workload's check op again and compares it
// byte-for-byte with the in-process render.
func (b *bench) verify(ctx context.Context, c *client) error {
	o := b.sched(b.w.check)
	doc := o.Doc
	id := ""
	if doc == nil {
		doc = b.w.scenes(b.opts.seed)[o.Scene]
		id = c.ids[o.Scene]
	} else {
		var err error
		if id, err = sceneID(doc); err != nil {
			return err
		}
	}
	body, err := c.fetch(ctx, http.MethodGet, o.path(id), nil, nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("check op: %w", err)
	}
	return verifyOp(doc, o, body)
}

// sample is the daemon's /proc and /metrics state at one instant.
type sample struct {
	cpu   time.Duration // user + system
	sys   time.Duration
	rssKB int64
	prom  exposition
}

func (b *bench) sample(ctx context.Context, d *daemon, c *client) (sample, error) {
	var s sample
	var err error
	if s.prom, err = c.scrape(ctx); err != nil {
		return s, err
	}
	var user time.Duration
	if user, s.sys, err = procCPU(d.pid); err != nil {
		return s, err
	}
	s.cpu = user + s.sys
	s.rssKB, err = procMemKB(d.pid, "VmRSS")
	return s, err
}

// untraced is a measuring run: several setups, one window, the
// end-to-end metrics.
func (b *bench) untraced(ctx context.Context) (*output, error) {
	var setupS []float64
	var spent time.Duration
	var d *daemon
	var c *client
	for i := 0; ; i++ {
		var took time.Duration
		var err error
		if d, c, took, err = b.setup(ctx, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		spent += took
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			break
		}
		c.close()
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	var meta hostMeta
	var before, after sample
	var results []result
	var elapsed time.Duration
	var hwmKB int64
	var checkErr error
	err := withDaemon(d, c, func() error {
		meta = b.meta(ctx, c)
		var err error
		if before, err = b.sample(ctx, d, c); err != nil {
			return err
		}
		results, elapsed = b.drive(ctx, c, 0, b.window(), nil)
		if after, err = b.sample(ctx, d, c); err != nil {
			return err
		}
		if hwmKB, err = procMemKB(d.pid, "VmHWM"); err != nil {
			return err
		}
		checkErr = b.verify(ctx, c)
		return nil
	})
	if err != nil {
		return nil, err
	}

	st := tally(results)
	if checkErr != nil {
		st.failed++
		st.errs = append(st.errs, checkErr.Error())
	}
	st.attempted++ // the check op
	lat := summarize(st.latMS)
	m := map[string]metric{
		"ops_per_s":     {ratio(float64(st.ok), elapsed.Seconds()), "1/s"},
		"p50_ms":        {lat.P50, "ms"},
		"p90_ms":        {lat.P90, "ms"},
		"ok_ratio":      {ratio(float64(st.attempted-st.failed), float64(st.attempted)), "ratio"},
		"cpu_ms_per_op": {ratio(ms(after.cpu-before.cpu), float64(st.ok)), "ms"},
		"rss_peak_mb":   {float64(hwmKB) / 1024, "MiB"},
		"setup_s":       {median(setupS), "s"},
	}
	b.header(meta)
	fmt.Fprintf(b.out, "setup_s each: %.4f\n", setupS)
	b.report(st, lat, elapsed)
	fmt.Fprintf(b.out, "ops per second of window: %v\n", sliceRates(results, time.Second))
	fmt.Fprintf(b.out, "rrsd cpu over the window: %.3fs, of which system %.3fs\n", (after.cpu - before.cpu).Seconds(), (after.sys - before.sys).Seconds())
	b.printMetrics(m)
	return &output{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// withDaemon runs f against the window's daemon and then stops it; the
// first error wins.
func withDaemon(d *daemon, c *client, f func() error) error {
	err := f()
	c.close()
	if serr := d.stop(); err == nil {
		err = serr
	}
	return err
}

// tallied is the accounting of one window.
type tallied struct {
	attempted, ok, failed int
	latMS, lateMS         []float64
	errs                  []string
	classes               map[string][]float64
}

func tally(results []result) tallied {
	t := tallied{attempted: len(results), classes: make(map[string][]float64)}
	for _, r := range results {
		if !r.ok() {
			t.failed++
			t.errs = append(t.errs, r.Err)
			continue
		}
		t.ok++
		l := ms(r.latency())
		t.latMS = append(t.latMS, l)
		t.lateMS = append(t.lateMS, ms(r.lateness()))
		if r.Class != "" {
			t.classes[r.Class] = append(t.classes[r.Class], l)
		}
	}
	return t
}

func (b *bench) meta(ctx context.Context, c *client) hostMeta {
	m := collectMeta(b.opts.srcRoot)
	if body, err := c.fetch(ctx, http.MethodGet, "/v1/info", nil, nil, http.StatusOK); err == nil {
		var info struct {
			Flags map[string]string `json:"flags"`
		}
		if json.Unmarshal(body, &info) == nil {
			m.RrsdFlags = info.Flags
		}
	}
	return m
}

func (b *bench) header(meta hostMeta) {
	loop := fmt.Sprintf("closed loop, %d connections", conns)
	if b.w.rate > 0 {
		loop = fmt.Sprintf("open loop, %g arrivals/s, %d connections", b.w.rate, conns)
	}
	fmt.Fprintf(b.out, "perfbench: workload %s, seed %d, %gs window, trace %v, %s\n",
		b.w.name, b.opts.seed, b.opts.seconds, b.opts.trace, loop)
	line, _ := json.Marshal(meta)
	fmt.Fprintf(b.out, "meta: %s\n", line)
}

// report prints the window's accounting and diagnostics: the latency
// tail beside the reported percentiles, the error rate, per-class
// latencies, and the first few failures.
func (b *bench) report(t tallied, lat summary, elapsed time.Duration) {
	fmt.Fprintf(b.out, "ops: attempted %d (incl. 1 check op), ok %d, failed %d, error_rate %.4f, window %.3fs to the last completion\n",
		t.attempted, t.ok, t.failed, ratio(float64(t.failed), float64(t.attempted)), elapsed.Seconds())
	fmt.Fprintf(b.out, "latency_ms: p50 %.3f p90 %.3f p99 %.3f max %.3f n %d\n", lat.P50, lat.P90, lat.P99, lat.Max, lat.N)
	if b.w.rate > 0 {
		late := summarize(t.lateMS)
		fmt.Fprintf(b.out, "lateness_ms (send - due): p50 %.3f p90 %.3f max %.3f n %d\n", late.P50, late.P90, late.Max, late.N)
	}
	classes := make([]string, 0, len(t.classes))
	for c := range t.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := summarize(t.classes[c])
		fmt.Fprintf(b.out, "class %s: p50 %.3f ms, n %d\n", c, s.P50, s.N)
	}
	for i, e := range t.errs {
		if i == 5 {
			fmt.Fprintf(b.errw, "... %d more failures\n", len(t.errs)-5)
			break
		}
		fmt.Fprintln(b.errw, "failure:", e)
	}
}

func (b *bench) printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0 // JSON has no NaN; every such value is a 0-based ratio
			m[n] = v
		}
		fmt.Fprintf(b.out, "metric %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
}

// spanDump is where a traced run writes its spans.
func (b *bench) spanDump() string {
	return filepath.Join(b.opts.runDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.opts.seed))
}

// sliceRates counts successful completions in each slice of the window.
func sliceRates(results []result, slice time.Duration) []int {
	var n []int
	for _, r := range results {
		if !r.ok() {
			continue
		}
		i := int(r.Done / slice)
		for len(n) <= i {
			n = append(n, 0)
		}
		n[i]++
	}
	return n
}
