package main

import (
	"context"
	"fmt"
	"time"
)

// selfCheckGap is the largest allowed relative gap between the noise
// fill plus ConvolveNoiseInto32 spans and the whole GenerateAtInto32
// span of the same raster tile (median over the replayed tiles).
const selfCheckGap = 0.10

// traced is the per-layer run. With one setup it measures half a
// window untraced, then half a window with HTTP spans recorded (the
// difference between the two rates is the tracing overhead), stops
// rrsd, and replays the traced ops' inputs in-process through the
// library's public calls — spans around core, convgen, rng, simd,
// inhomo and render — for up to half a window more.
func (b *bench) traced(ctx context.Context) (*output, error) {
	d, c, _, err := b.setup(ctx, 0)
	if err != nil {
		return nil, err
	}
	half := b.window() / 2
	tr := newTracer()
	var plain, traced []result
	var plainDur, tracedDur time.Duration
	var before, after sample
	var checkErr error
	err = withDaemon(d, c, func() error {
		b.header(b.meta(ctx, c))
		plain, plainDur = b.drive(ctx, c, 0, half, nil)
		next := int64(0)
		for _, r := range plain {
			next = max(next, r.K+1)
		}
		var err error
		if before, err = b.sample(ctx, d, c); err != nil {
			return err
		}
		traced, tracedDur = b.drive(ctx, c, next, half, tr)
		if after, err = b.sample(ctx, d, c); err != nil {
			return err
		}
		checkErr = b.verify(ctx, c)
		return nil
	})
	if err != nil {
		return nil, err
	}

	rp := b.replay(tr, traced, half)

	st := tally(append(append([]result(nil), plain...), traced...))
	st.attempted++ // the check op
	if checkErr != nil {
		st.failed++
		st.errs = append(st.errs, checkErr.Error())
	}
	st.failed += rp.mismatched
	st.errs = append(st.errs, rp.errs...)
	correct := st.failed == 0
	if b.w == rasterF32 {
		gap := median(rp.stats.splitGap)
		fmt.Fprintf(b.out, "self-check: %d split renders, %d differ from GenerateAtInto32, median |fill+conv-whole|/whole %.2f%% (limit %.0f%%)\n",
			rp.stats.splitChecked, rp.stats.splitDiffer, 100*gap, 100*selfCheckGap)
		if rp.stats.splitChecked == 0 || rp.stats.splitDiffer > 0 || gap > selfCheckGap {
			correct = false
			st.errs = append(st.errs, "raster self-check failed")
		}
	}

	m := b.layerMetrics(plain, plainDur, traced, tracedDur, before, after, tr, rp)
	fmt.Fprintf(b.out, "replay: %d ops in %.3fs, %d compared with rrsd's bytes, %d differ\n",
		rp.ops, rp.took.Seconds(), rp.compared, rp.mismatched)
	b.report(st, summarize(tally(traced).latMS), tracedDur)
	b.printMetrics(m)
	//lint:ignore detflow span dumps are timings by design
	if err := writeSpans(b.spanDump(), tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(tr.spans), b.spanDump())
	return &output{Correct: correct, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// replayed is the outcome of the in-process replay.
type replayed struct {
	stats      replayStats
	ops        int
	compared   int
	mismatched int
	errs       []string
	took       time.Duration
}

// setupOp is the op id of the replayed setup (scene parse and design).
const setupOp = -1

// replay re-renders the traced window's ops in-process, in order,
// until budget runs out: first the setup (parse and design of every
// scene; in viewer-hot also the warm pass, whose renders are the
// workload's only ones), then each traced op. Every render whose path
// the traced window fetched is compared with that response's digest.
func (b *bench) replay(tr *tracer, traced []result, budget time.Duration) (rp replayed) {
	digests := make(map[string]uint64)
	for _, r := range traced {
		if r.ok() {
			digests[r.Path] = r.Digest
		}
	}
	t0 := time.Now()
	defer func() { rp.took = time.Since(t0) }()
	fail := func(k int64, err error) {
		rp.mismatched++
		rp.errs = append(rp.errs, fmt.Sprintf("replay op %d: %v", k, err))
	}
	renderOne := func(m *model, o op, root int) {
		body, err := m.render(o, tr, root, &rp.stats, true)
		if err != nil {
			fail(o.K, err)
			return
		}
		rp.ops++
		if want, ok := digests[o.path(m.id)]; ok {
			rp.compared++
			if digestOf(body) != want {
				fail(o.K, fmt.Errorf("%s: in-process bytes differ from rrsd's", o.path(m.id)))
			}
		}
	}

	docs := b.w.scenes(b.opts.seed)
	models := make([]*model, len(docs))
	root := tr.begin(setupOp, "replay.op", -1)
	for i, doc := range docs {
		m, err := newModel(doc, tr, setupOp, root)
		if err == nil {
			_, err = m.components(0, tr, setupOp, root)
		}
		if err != nil {
			tr.end(root)
			fail(setupOp, err)
			return rp
		}
		models[i] = m
	}
	tr.end(root)
	if b.w == viewerHot {
		for _, o := range b.w.warm(b.opts.seed) {
			if time.Since(t0) > budget {
				return rp
			}
			root := tr.begin(o.K, "replay.op", -1)
			renderOne(models[o.Scene], o, root)
			tr.end(root)
		}
		return rp
	}
	for _, r := range traced {
		if time.Since(t0) > budget && rp.ops > 0 {
			return rp
		}
		if !r.ok() {
			continue
		}
		o := b.sched(r.K)
		root := tr.begin(o.K, "replay.op", -1)
		m := models[max(o.Scene, 0)]
		if o.Doc != nil {
			var err error
			if m, err = newModel(o.Doc, tr, o.K, root); err != nil {
				tr.end(root)
				fail(o.K, err)
				continue
			}
		}
		renderOne(m, o, root)
		tr.end(root)
	}
	return rp
}

// layerMetrics assembles the per-layer split: /metrics deltas and
// /proc readings over the traced half, client-side span times, and the
// replay's self times and counts. Every ratio is printed with its base.
func (b *bench) layerMetrics(plain []result, plainDur time.Duration, traced []result, tracedDur time.Duration,
	before, after sample, tr *tracer, rp replayed) map[string]metric {
	d := func(key string) float64 { return delta(before.prom, after.prom, key) }
	hits, misses := d("rrsd_tile_cache_hits_total"), d("rrsd_tile_cache_misses_total")
	reqs := d("rrsd_request_seconds_count")
	handlerMean := 1000 * ratio(d("rrsd_request_seconds_sum"), reqs)
	scenes := d("rrsd_scenes")

	var tileMS []float64
	for _, s := range tr.spans {
		if s.Name == "http.tile" {
			tileMS = append(tileMS, ms(s.End-s.Start))
		}
	}
	clientMean := mean(tileMS)

	tt := tally(traced)
	tracedRate := ratio(float64(tt.ok), tracedDur.Seconds())
	plainRate := ratio(float64(tally(plain).ok), plainDur.Seconds())
	overhead := 100 * (ratio(plainRate, tracedRate) - 1)
	if tracedRate == 0 {
		overhead = 0
	}
	var lateP90 float64
	if b.w.rate > 0 {
		lateP90 = quantile(tt.lateMS, 0.9)
	}

	m := map[string]metric{
		"service.cache_hit_ratio":       {ratio(hits, hits+misses), "ratio"},
		"service.cache_lookups":         {hits + misses, "count"},
		"service.handler_ms_mean":       {handlerMean, "ms"},
		"service.handler_requests":      {reqs, "count"},
		"http.client_ms_mean":           {clientMean, "ms"},
		"http.client_overhead_ms":       {clientMean - handlerMean, "ms"},
		"service.shed_429":              {d("rrsd_tiles_shed_total"), "count"},
		"service.deadline_503":          {d("rrsd_tiles_deadline_total"), "count"},
		"service.prefetch_rendered":     {d("rrsd_prefetch_rendered_total"), "count"},
		"service.prefetch_skipped":      {d("rrsd_prefetch_skipped_total"), "count"},
		"service.prefetch_dropped":      {d("rrsd_prefetch_dropped_total"), "count"},
		"service.cache_bytes":           {after.prom["rrsd_tile_cache_bytes"], "bytes"},
		"service.rss_per_scene_mb":      {ratio(float64(after.rssKB-before.rssKB)/1024, scenes), "MiB"},
		"service.scenes_added":          {scenes, "count"},
		"service.cpu_ms_per_op":         {ratio(ms(after.cpu-before.cpu), float64(tt.ok)), "ms"},
		"load.ops":                      {float64(tt.ok), "count"},
		"load.lateness_p90_ms":          {lateP90, "ms"},
		"trace.overhead_pct":            {overhead, "%"},
		"trace.untraced_ops_per_s":      {plainRate, "1/s"},
		"trace.traced_ops_per_s":        {tracedRate, "1/s"},
		"trace.replay_ops":              {float64(rp.ops), "count"},
		"trace.replay_compared":         {float64(rp.compared), "count"},
		"trace.selfcheck_gap_pct":       {100 * median(rp.stats.splitGap), "%"},
		"rng.noise_samples_per_op":      {mean(rp.stats.noiseSamples), "samples"},
		"convgen.macs_per_op":           {mean(rp.stats.macs), "MACs"},
		"convgen.fft_share":             {ratio(float64(rp.stats.fftRenders), float64(rp.stats.renders)), "ratio"},
		"inhomo.active_components_mean": {mean(rp.stats.active), "count"},
		"render.png_bytes":              {mean(rp.stats.pngBytes), "bytes"},
	}
	self := selfTimes(tr.spans)
	for _, name := range []string{"core.parse", "core.design", "rng.noise_fill", "simd.conv_direct",
		"convgen.render", "inhomo.support_mask", "inhomo.render", "render.png"} {
		var xs []float64
		for _, v := range self[name] {
			xs = append(xs, ms(v))
		}
		s := summarize(xs)
		m[name+"_ms"] = metric{s.P50, "ms"}
		m[name+"_ms_p90"] = metric{s.P90, "ms"}
		m[name+"_n"] = metric{float64(s.N), "count"}
	}
	return m
}
