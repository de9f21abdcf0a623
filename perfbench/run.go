package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fekf/internal/device"
	"fekf/internal/fleet"
	"fekf/internal/obs"
	"fekf/internal/serve"
)

// endToEnd and perLayer list every reported metric with its unit; they
// match BENCHMARK.json (the smoke test checks it).
var endToEnd = map[string]string{
	"setup_s":           "s",
	"predict_p50_ms":    "ms",
	"freshness_p50_ms":  "ms",
	"train_steps_per_s": "1/s",
	"step_p50_ms":       "ms",
	"step_p90_ms":       "ms",
	"energy_abe_mev":    "meV/atom",
	"force_abe_mev":     "meV/A",
	"p_resident_mb":     "MB",
}

var perLayer = map[string]string{
	"serve.predict_server_ms":          "ms",
	"serve.predict_p95_ms":             "ms",
	"serve.predict_client_overhead_ms": "ms",
	"serve.predict_batch_frames":       "count",
	"serve.frames_server_ms":           "ms",
	"online.admit_ms":                  "ms",
	"online.gate_ms":                   "ms",
	"online.sample_ms":                 "ms",
	"online.step_ms":                   "ms",
	"online.publish_ms":                "ms",
	"online.loop_self_ms":              "ms",
	"online.span_coverage_ratio":       "ratio",
	"online.gate_accept_ratio":         "ratio",
	"online.frames_dropped":            "count",
	"device.kernels_per_step":          "count",
	"device.modeled_ms_per_step":       "ms",
	"fleet.sample_ms":                  "ms",
	"fleet.publish_ms":                 "ms",
	"fleet.conductor_self_ms":          "ms",
	"fleet.rank_skew_ms":               "ms",
	"fleet.span_coverage_ratio":        "ratio",
	"autodiff.backward_ms":             "ms",
	"cluster.allreduce_ms":             "ms",
	"cluster.ring_ops_per_step":        "count",
	"cluster.wire_kb_per_step":         "kB",
	"cluster.transport_kb_per_step":    "kB",
	"optimize.gain_ms":                 "ms",
	"optimize.drain_ms":                "ms",
	"optimize.drain_hidden_ratio":      "ratio",
	"pshard.exchange_ms":               "ms",
	"pshard.exchange_kb_per_step":      "kB",
	"runtime.alloc_mb_per_step":        "MB",
	"runtime.gc_cpu_ratio":             "ratio",
	"runtime.gc_cycles_per_step":       "count",
	"runtime.cpu_ms_per_step":          "ms",
	"bench.generator_late_p99_ms":      "ms",
	"obs.trace_overhead_ratio":         "ratio",
}

// traceCapacity bounds both tracers; a run records far fewer steps and
// requests, so nothing is overwritten (asserted via Dropped).
const traceCapacity = 1 << 17

// probe is a reading of the counters per-layer metrics take deltas of.
type probe struct {
	steps int
	dev   device.Counters
	rt    runtimeSample
	fleet fleet.Stats
}

func (x *instance) probe() probe {
	p := probe{steps: x.log.steps(), dev: x.dev.Counters(), rt: readRuntime()}
	if x.fl != nil {
		p.fleet = x.fl.FleetStats()
	}
	return p
}

// run executes one workload run and returns its result and the failed
// correctness checks; an error means the run could not be carried out.
func run(w workload, o options) (*result, []string, error) {
	// A fleet's step metrics come from its fit and its request metrics
	// from the serve phase after it; each gets half the run.
	fitWindow := o.seconds / 2
	serveWindow := o.seconds - fitWindow
	if !w.fleet {
		// The single trainer's fit only has to reach fitSteps; its step
		// metrics come from the serve window, where predicts compete.
		fitWindow, serveWindow = 0, o.seconds
	}
	in, err := genInputs(w, o.seed, o.fitFrames, serveWindow)
	if err != nil {
		return nil, nil, err
	}
	var failures []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}

	// Set-up: backends are built back to back and all but the last shut
	// down again; setup_s is their lower quartile.  A traced run builds one
	// untraced backend whose fit is the baseline of the tracing overhead.
	builds := o.setups
	if o.trace {
		builds = 2
	}
	var setupS, baseline []float64
	var tracer, bench *obs.Tracer
	var x *instance
	for i := 0; i < builds; i++ {
		last := i == builds-1
		if last && o.trace {
			tracer, bench = obs.NewTracer(traceCapacity), obs.NewTracer(traceCapacity)
		}
		runtime.GC()
		y, d, err := setup(w, fitSeed, in.fit, tracer, bench)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, d.Seconds())
		if last {
			x = y
			break
		}
		if o.trace {
			if err := y.log.waitSteps(o.fitSteps, 3*time.Minute); err != nil {
				return nil, nil, err
			}
			at := y.log.times()
			baseline = stepWindow(at, at[0], at[o.fitSteps-1])
		}
		if err := y.shutdown(); err != nil {
			return nil, nil, fmt.Errorf("shutdown after set-up: %w", err)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			x.shutdown()
		}
	}()

	// Fit: no client traffic; the replay population was fixed before
	// Start, so steps 1..fitSteps repeat bitwise.
	fitStart := x.log.times()[0]
	fit0 := x.probe()
	if err := x.log.waitSteps(o.fitSteps, 3*time.Minute); err != nil {
		return nil, nil, err
	}
	time.Sleep(time.Until(fitStart.Add(fitWindow)))
	fitEnd := time.Now()
	fit1 := x.probe()
	eABE, fABE := x.log.abe()
	eABE, fABE = eABE[:o.fitSteps], fABE[:o.fitSteps]
	if x.fl != nil {
		check(x.fl.WeightDrift() == 0 && x.fl.PDrift() == 0, "drift after the fit: weights %g, P %g", x.fl.WeightDrift(), x.fl.PDrift())
	}
	pResident := x.residentP()

	// Serve: two open-loop streams, predicts and labelled frames.
	var stats0, stats1 serve.StatsResponse
	metrics0, err := x.scrape(bench, &stats0)
	if err != nil {
		return nil, nil, err
	}
	scored0 := stats0.FramesAccepted + stats0.FramesGatedOut
	serve0 := x.probe()
	start := time.Now().Add(10 * time.Millisecond)
	var predicts, frames []request
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		predicts = openLoop(newClient(), x.base+"/v1/predict", in.predicts, in.predictDue, start, bench, "bench_http_predict", decodePredict(in.atoms))
	}()
	go func() {
		defer wg.Done()
		frames = openLoop(newClient(), x.base+"/v1/frames", in.frames, in.frameDue, start, bench, "bench_http_frames", decodeFrames)
	}()
	wg.Wait()
	serve1 := x.probe()
	metrics1, err := x.scrape(bench, &stats1)
	if err != nil {
		return nil, nil, err
	}
	// Every streamed frame must reach a published snapshot.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := x.log.coveredAt(scored0 + int64(len(frames))); ok {
			break
		}
		if time.Now().After(deadline) {
			check(false, "streamed frames not covered by a published snapshot within 30s")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := x.be.Stats()
	check(st.LastError == "", "backend error: %s", st.LastError)
	if x.fl != nil {
		check(x.fl.WeightDrift() == 0 && x.fl.PDrift() == 0, "drift after serving: weights %g, P %g", x.fl.WeightDrift(), x.fl.PDrift())
	}
	stopped = true
	if err := x.shutdown(); err != nil {
		return nil, nil, fmt.Errorf("shutdown: %w", err)
	}
	if err := x.log.error(); err != nil {
		check(false, "%v", err)
	}
	if o.trace {
		check(tracer.Dropped() == 0 && bench.Dropped() == 0, "tracer overwrote %d program and %d benchmark traces", tracer.Dropped(), bench.Dropped())
		if o.traceOut != "" {
			if err := writeChromeTrace(o.traceOut, tracer, bench); err != nil {
				return nil, nil, err
			}
		}
	}

	// Outputs: request outcomes, freshness, ABE.
	res := &result{Attempted: int64(len(predicts) + len(frames)), Metrics: map[string]metric{}}
	var predictMs, lateMs []float64
	var predictDue []time.Time
	var rttMs float64
	maxStep := int64(-1)
	for k, r := range predicts {
		lateMs = append(lateMs, ms(r.sent.Sub(r.due)))
		if r.err != nil {
			res.Failed++
			check(false, "predict %d: %v", k, r.err)
			continue
		}
		predictMs = append(predictMs, ms(r.latency()))
		predictDue = append(predictDue, r.due)
		rttMs += ms(r.done.Sub(r.sent))
		// A fleet publishes its replicas one after another, so a predict
		// may be answered by a replica one publish behind another's.
		lag := int64(0)
		if w.fleet {
			lag = snapshotEvery
		}
		check(r.step >= maxStep-lag, "predict %d answered by step %d after step %d", k, r.step, maxStep)
		maxStep = max(maxStep, r.step)
	}
	var freshMs []float64
	var freshDue []time.Time
	for k, r := range frames {
		lateMs = append(lateMs, ms(r.sent.Sub(r.due)))
		if r.err != nil {
			res.Failed++
			check(false, "frame %d: %v", k, r.err)
			continue
		}
		if t, ok := x.log.coveredAt(scored0 + int64(k) + 1); ok {
			freshMs = append(freshMs, ms(t.Sub(r.due)))
			freshDue = append(freshDue, r.due)
		}
	}
	check(len(predictMs) > 0 && len(freshMs) > 0, "no predict or freshness samples")
	check(finite(eABE...) && finite(fABE...), "non-finite ABE in the fit")
	half := o.fitSteps / 2
	eFinal, fFinal := mean(eABE[half:]), mean(fABE[half:])
	// A 64-step fit lowers the energy error; the force error need only
	// not blow up.
	check(eFinal < eABE[0] && fFinal < 2*fABE[0], "fit did not learn: ABE %g/%g after, %g/%g at step 1", eFinal, fFinal, eABE[0], fABE[0])

	// The window the step metrics come from: the fit for a fleet, the
	// serve window (training beside predicts) for the single trainer.
	win0, win1 := fit0, fit1
	winFrom, winTo := fitStart, fitEnd
	if !w.fleet {
		win0, win1 = serve0, serve1
		winFrom, winTo = start, start.Add(serveWindow)
	}
	// Step rate and latency quantiles are taken per sub-window: by due time
	// for requests, by completion time for steps (a sub-window's intervals
	// are those between two of its steps).
	inWindows := func(at []time.Time, xs []float64, q float64) float64 {
		return windowQuantile(at, start, start.Add(serveWindow), timingQ, func(lo, hi int) float64 { return quantile(xs[lo:hi], q) })
	}
	stepAt := x.log.times()
	stepsIn := func(q float64, f func(intervals []float64) float64) float64 {
		return windowQuantile(stepAt, winFrom, winTo, q, func(lo, hi int) float64 {
			var intervals []float64
			for i := lo + 1; i < hi; i++ {
				intervals = append(intervals, ms(stepAt[i].Sub(stepAt[i-1])))
			}
			return f(intervals)
		})
	}
	if !o.trace {
		put := func(name string, v float64) { res.Metrics[name] = metric{v, endToEnd[name]} }
		put("setup_s", quantile(setupS, timingQ))
		put("predict_p50_ms", inWindows(predictDue, predictMs, 0.5))
		put("freshness_p50_ms", inWindows(freshDue, freshMs, 0.5))
		put("train_steps_per_s", stepsIn(rateQ, func(intervals []float64) float64 { return 1000 / mean(intervals) }))
		put("step_p50_ms", stepsIn(timingQ, func(intervals []float64) float64 { return quantile(intervals, 0.5) }))
		put("step_p90_ms", stepsIn(timingQ, func(intervals []float64) float64 { return quantile(intervals, 0.9) }))
		put("energy_abe_mev", 1000*eFinal)
		put("force_abe_mev", 1000*fFinal)
		put("p_resident_mb", float64(pResident)/1e6)
		return finish(res, failures)
	}

	put := func(name string, v float64) { res.Metrics[name] = metric{v, perLayer[name]} }
	traces := tracer.Last(0)
	stepT := analyze(traces, int64(win0.steps), int64(win1.steps))
	serveT := analyze(traces, int64(serve0.steps), int64(serve1.steps))
	dSteps := float64(win1.steps - win0.steps)

	predictServer := 1000 * ratio(
		promSeries(metrics1, "fekf_http_request_seconds_sum", `route="/v1/predict"`)-promSeries(metrics0, "fekf_http_request_seconds_sum", `route="/v1/predict"`),
		promSeries(metrics1, "fekf_http_request_seconds_count", `route="/v1/predict"`)-promSeries(metrics0, "fekf_http_request_seconds_count", `route="/v1/predict"`))
	put("serve.predict_server_ms", predictServer)
	put("serve.predict_p95_ms", inWindows(predictDue, predictMs, 0.95))
	put("serve.predict_client_overhead_ms", ratio(rttMs, float64(len(predictMs)))-predictServer)
	put("serve.predict_batch_frames", ratio(float64(stats1.PredictRequests-stats0.PredictRequests), float64(stats1.PredictBatches-stats0.PredictBatches)))
	put("serve.frames_server_ms", 1000*ratio(
		promSeries(metrics1, "fekf_http_request_seconds_sum", `route="/v1/frames"`)-promSeries(metrics0, "fekf_http_request_seconds_sum", `route="/v1/frames"`),
		promSeries(metrics1, "fekf_http_request_seconds_count", `route="/v1/frames"`)-promSeries(metrics0, "fekf_http_request_seconds_count", `route="/v1/frames"`)))

	put("online.admit_ms", serveT.perOccurrence("ingest_admit"))
	put("online.gate_ms", serveT.perOccurrence("gate"))
	acc := float64(stats1.FramesAccepted - stats0.FramesAccepted)
	put("online.gate_accept_ratio", ratio(acc, acc+float64(stats1.FramesGatedOut-stats0.FramesGatedOut)))
	put("online.frames_dropped", float64(stats1.FramesDropped))
	loop, conductor := stepT, spanTotals{}
	if w.fleet {
		loop, conductor = spanTotals{}, stepT
	}
	put("online.sample_ms", loop.perOccurrence("sample"))
	put("online.step_ms", loop.perOccurrence("step"))
	put("online.publish_ms", loop.perOccurrence("snapshot_publish"))
	put("online.loop_self_ms", ratio(loop.wallMs-loop.coverMs, float64(loop.steps)))
	put("online.span_coverage_ratio", ratio(loop.coverMs, loop.wallMs))
	put("fleet.sample_ms", conductor.perOccurrence("sample"))
	put("fleet.publish_ms", conductor.perOccurrence("snapshot_publish"))
	put("fleet.conductor_self_ms", ratio(conductor.wallMs-conductor.coverMs, float64(conductor.steps)))
	put("fleet.rank_skew_ms", ratio(conductor.skewMs, float64(conductor.steps)))
	put("fleet.span_coverage_ratio", ratio(conductor.coverMs, conductor.wallMs))

	// Device counters over the fit, the only phase without predict
	// forwards on the trainer's device.
	dev := fit1.dev.Sub(fit0.dev)
	fitSteps := float64(fit1.steps - fit0.steps)
	put("device.kernels_per_step", ratio(float64(dev.Kernels), fitSteps))
	put("device.modeled_ms_per_step", ratio(dev.ModeledNs/1e6, fitSteps))

	put("autodiff.backward_ms", stepT.perRankStep("backward"))
	put("cluster.allreduce_ms", stepT.perRankStep("allreduce"))
	put("optimize.gain_ms", stepT.perRankStep("gain"))
	put("optimize.drain_ms", stepT.perRankStep("drain"))
	put("optimize.drain_hidden_ratio", ratio(stepT.hidMs, stepT.drainMs))
	put("pshard.exchange_ms", stepT.perRankStep("exchange"))
	f0, f1 := fit0.fleet, fit1.fleet
	put("cluster.ring_ops_per_step", ratio(float64(f1.RingOps-f0.RingOps), fitSteps))
	put("cluster.wire_kb_per_step", ratio(float64(f1.RingWireBytes-f0.RingWireBytes)/1e3, fitSteps))
	put("cluster.transport_kb_per_step", ratio(float64(f1.Transport.BytesSent-f0.Transport.BytesSent)/1e3, fitSteps))
	exchange := 0.0
	if f1.PShard != nil {
		exchange = float64(f1.PShard.ExchangeBytesPerStep) / 1e3
	}
	put("pshard.exchange_kb_per_step", exchange)

	put("runtime.alloc_mb_per_step", ratio((win1.rt.allocBytes-win0.rt.allocBytes)/1e6, dSteps))
	put("runtime.gc_cpu_ratio", ratio(win1.rt.gcCPU-win0.rt.gcCPU, win1.rt.totalCPU-win0.rt.totalCPU))
	put("runtime.gc_cycles_per_step", ratio(win1.rt.gcCycles-win0.rt.gcCycles, dSteps))
	put("runtime.cpu_ms_per_step", ratio(win1.rt.processCPUMs-win0.rt.processCPUMs, dSteps))
	put("bench.generator_late_p99_ms", quantile(lateMs, 0.99))
	tracedFit := stepWindow(x.log.times(), fitStart, x.log.times()[o.fitSteps-1])
	put("obs.trace_overhead_ratio", median(tracedFit)/median(baseline)-1)
	return finish(res, failures)
}

// finish fails the run on any non-finite metric (reported as 0, since
// JSON has no NaN) and sets Correct.
func finish(res *result, failures []string) (*result, []string, error) {
	for name, m := range res.Metrics {
		if !finite(m.Value) {
			failures = append(failures, fmt.Sprintf("metric %s is %g", name, m.Value))
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	if len(failures) > 8 {
		failures = append(failures[:8], fmt.Sprintf("... and %d more", len(failures)-8))
	}
	res.Correct = len(failures) == 0
	return res, failures, nil
}

// scrape reads /metrics and /v1/stats, recording the benchmark's spans.
func (x *instance) scrape(bench *obs.Tracer, stats *serve.StatsResponse) (string, error) {
	rec := bench.Begin()
	t0 := time.Now()
	text, err := getText(x.base + "/metrics")
	rec.Span(-1, "bench_http_metrics", t0, time.Since(t0))
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	err = getJSON(x.base+"/v1/stats", stats)
	rec.Span(-1, "bench_http_stats", t1, time.Since(t1))
	rec.End(0)
	return text, err
}
