// Command e2ebench is the repository's end-to-end service benchmark. In
// one process it starts three serve.Server replicas and a cluster.Router
// on loopback, drives one seeded workload at them (closed-loop rounds
// with a fixed op count, interleaved with slices of an open-loop phase at
// the workload's fixed rate), checks every answer bit for bit against a
// reference solved directly through the library, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload inline-router --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and reports per-layer metrics instead. Workloads, rates
// and SLOs live in workloads.json. The exit code is 0 on success, 1 when
// any answer differed from its reference, and 2 when the run could not be
// set up (no result line is printed then).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/workload"
)

// setupsPerRun is how many times a run sets the service up; setup_s is
// the median.
const setupsPerRun = 3

// closedRounds is how many equal rounds the closed loop is sent in, and
// how many slices the open-loop window is cut into to interleave with them.
const closedRounds = 16

// processStart is when the process began running Go code; the first
// set-up is timed from here.
var processStart = time.Now()

// options are one run's settings. The catalog and op-count overrides
// exist for the benchmark's own tests, which run every workload tiny.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setups    int
	outDir    string
	graphs    int // catalog size override (0 = workloads.json)
	tasks     int // graph size override (0 = workloads.json)
	closedOps int // closed-loop op count override (0 = workloads.json)
}

func main() {
	o := options{setups: setupsPerRun}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see workloads.json)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: arrivals, graph picks and platform classes")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the open-loop phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "e2ebench"), "directory for span dumps and the validation cache")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	code, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes one benchmark run and prints its report and result line to
// out. It returns the exit code, or an error for a run that could not be
// set up or driven (infrastructure failure: no result is printed).
func run(ctx context.Context, o options, out io.Writer) (int, error) {
	sinceStart := time.Since(processStart)
	cfg, err := loadConfig()
	if err != nil {
		return 0, err
	}
	wl, err := cfg.lookup(o.workload)
	if err != nil {
		return 0, err
	}
	if o.graphs > 0 {
		wl.Catalog.Graphs = o.graphs
	}
	if o.tasks > 0 {
		wl.Catalog.Tasks = o.tasks
	}
	if o.closedOps > 0 {
		wl.ClosedOps = o.closedOps
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}

	tr, err := workload.Generate(wl.spec(time.Duration(o.seconds*float64(time.Second))), o.seed)
	if err != nil {
		return 0, err
	}
	if len(tr.Events) == 0 {
		return 0, fmt.Errorf("the workload generated no events in %gs", o.seconds)
	}
	fmt.Fprintf(out, "workload  : %s seed=%d spec=%s events=%d window=%gs rate=%g/s slo=%gms held-out-seed=%d\n",
		wl.Name, o.seed, tr.SpecHash, len(tr.Events), o.seconds, wl.Rate, wl.SLOMillis, cfg.HeldoutSeed)
	fmt.Fprintf(out, "load      : %d closed-loop clients, at most %d open-loop requests outstanding, GOMAXPROCS=%d\n",
		nproc, nproc, runtime.GOMAXPROCS(0))

	var rec *recorder
	traceKeep := 0 // the server default
	if o.trace {
		rec = newRecorder()
		traceKeep = 2*wl.ClosedOps + len(tr.Events) + 64 // retain every traced request
	}
	vc, err := openValidationCache(filepath.Join(o.outDir, "validated-"+wl.Name+".txt"))
	if err != nil {
		return 0, err
	}

	// Set up several times and report the median; only the last stack
	// stays up. The reference solves (and their validation) run inside the
	// first set-up but are not counted.
	var (
		st     *stack
		cat    *catalog
		ref    *reference
		tpl    [][]*template
		setups []float64
	)
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < o.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return 0, fmt.Errorf("stopping set-up %d: %w", i, err)
			}
			st = nil
		}
		t0 := time.Now()
		if cat, err = buildCatalog(wl); err != nil {
			return 0, err
		}
		var refTime time.Duration
		if ref == nil {
			r0 := time.Now()
			if ref, err = computeReference(ctx, wl, cat, vc); err != nil {
				return 0, fmt.Errorf("reference: %w", err)
			}
			refTime = time.Since(r0)
		}
		if st, tpl, err = bringUp(ctx, wl, cat, ref, rec, traceKeep); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		d := time.Since(t0) - refTime
		if i == 0 {
			d += sinceStart
		}
		setups = append(setups, d.Seconds())
	}

	routed := wl.Target == targetRouter
	snd := &sender{client: st.client, base: st.replicaURL(0)}
	if routed {
		snd.base = st.routerURL
	}
	// The open loop sends the trace's events; the closed loop sends every
	// distinct request equally often in a seed-shuffled order, so each
	// run's throughput measures the same work.
	openOps := make([]*template, len(tr.Events))
	for i, ev := range tr.Events {
		openOps[i] = tpl[ev.Graph][ev.Class]
	}
	var distinct []*template
	for _, row := range tpl {
		distinct = append(distinct, row...)
	}
	closedOps := make([]*template, wl.ClosedOps)
	for i := range closedOps {
		closedOps[i] = distinct[i%len(distinct)]
	}
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0))
	rng.Shuffle(len(closedOps), func(i, j int) { closedOps[i], closedOps[j] = closedOps[j], closedOps[i] })

	keys := map[string]string{} // traced request id -> graph id
	send := func(prefix string, ops []*template) func(context.Context, int) error {
		return func(ctx context.Context, i int) error {
			t, id := ops[i], prefix+strconv.Itoa(i)
			if rec == nil || !rec.on.Load() {
				return snd.send(ctx, t, id)
			}
			start := rec.now()
			err := snd.send(ctx, t, id)
			rec.add(span{ReqID: id, Name: "loadgen.request", Start: start, End: rec.now()})
			return err
		}
	}

	// The measured phase interleaves the closed loop with the open loop:
	// closed round k, then the open-loop events due in the k-th of as many
	// equal slices of the window. Host speed on a shared machine drifts
	// over seconds to tens of seconds, so both loops sample the whole run
	// rather than the closed loop seeing only its first few seconds.
	//
	// Closed loop: nproc clients, a fixed op count sent in equal rounds;
	// throughput is the median round's. In a traced run every untraced
	// round is followed by the same round traced, and the open loop is
	// traced.
	//
	// Open loop: every event at its intended offset within its slice; a
	// slice's outstanding ops finish before the next round starts. Each
	// slice starts from a collected heap so closed-loop garbage is not
	// charged to it, and the resource counters cover the open slices only.
	rounds := min(closedRounds, len(closedOps))
	per := len(closedOps) / rounds
	window := time.Duration(o.seconds * float64(time.Second))
	var (
		closedOut, tracedOut, openOut    []outcome
		closedRates, tracedRates         []float64
		closedWall, tracedWall, openWall time.Duration
		used                             usage
	)
	closedRound := func(prefix string, k int, outs *[]outcome, rates *[]float64, wall *time.Duration) {
		o, w := closedLoop(ctx, per, nproc, send(prefix+strconv.Itoa(k)+"-", closedOps[k*per:(k+1)*per]))
		*outs = append(*outs, o...)
		*rates = append(*rates, float64(tally(o).ok)/w.Seconds())
		*wall += w
	}
	hits0, misses0 := st.sessionStats()
	spill0, err := st.spillovers(ctx)
	if err != nil {
		return 0, err
	}
	next := 0 // the first open-loop event not yet sent
	for k := 0; k < rounds; k++ {
		rec.record(false)
		snd.query = ""
		closedRound("c", k, &closedOut, &closedRates, &closedWall)
		if rec != nil {
			rec.record(true)
			snd.query = "?trace=1"
			closedRound("t", k, &tracedOut, &tracedRates, &tracedWall)
		}

		from, to := window*time.Duration(k)/time.Duration(rounds), window*time.Duration(k+1)/time.Duration(rounds)
		first := next
		for next < len(tr.Events) && (tr.Events[next].At < to || k == rounds-1) {
			next++
		}
		at := make([]time.Duration, next-first)
		prefix := "o" + strconv.Itoa(k) + "-"
		for i := range at {
			at[i] = tr.Events[first+i].At - from
			keys[prefix+strconv.Itoa(i)] = openOps[first+i].key
		}
		runtime.GC()
		before := snapshot()
		outs, w := openLoop(ctx, at, nproc, send(prefix, openOps[first:next]))
		used = used.plus(snapshot().minus(before))
		openOut = append(openOut, outs...)
		openWall += w
	}
	rec.record(false)
	closedRate := median(append([]float64(nil), closedRates...))
	closed := tally(closedOut)
	fmt.Fprintf(out, "closed    : %s wall=%v in %d rounds of %d ops, %.1f ops/s\n",
		closed, closedWall.Round(time.Millisecond), rounds, per, closedRates)
	var tracedRate float64
	if rec != nil {
		tracedRate = median(tracedRates)
		fmt.Fprintf(out, "traced    : %s wall=%v\n", tally(tracedOut), tracedWall.Round(time.Millisecond))
		closed = addCounts(closed, tally(tracedOut))
	}
	open := tally(openOut)

	fmt.Fprintf(out, "open      : %s wall=%v in %d slices\n", open, openWall.Round(time.Millisecond), rounds)
	if err := firstError(closedOut, tracedOut, openOut); err != nil {
		fmt.Fprintf(out, "first failure: %v\n", err)
	}

	res := result{
		Correct:   closed.wrong+open.wrong == 0,
		Attempted: closed.sent + open.sent,
		Failed:    closed.failed() + open.failed(),
		Metrics:   map[string]metricValue{},
	}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("e2ebench: unknown metric " + name) // a typo in this file
	}

	var lat, late []float64
	good := 0
	for _, o := range openOut {
		if o.status != statusOK {
			continue
		}
		lat = append(lat, millis(o.latency))
		late = append(late, millis(o.lateness))
		if millis(o.latency) <= wl.SLOMillis {
			good++
		}
	}
	sort.Float64s(late)
	p50, windows := windowedPercentile(lat, 0.5)
	p95, _ := windowedPercentile(lat, 0.95)
	perWindow := len(lat) / windows
	fmt.Fprintf(out, "latency   : %d open-loop samples in %d send-order windows; p50 and p95 are window medians, %d samples beyond p95 per window (the ten-beyond rule allows up to p%g)\n",
		len(lat), windows, beyond(perWindow, 0.95), 100*tailLevel(perWindow))
	fmt.Fprintf(out, "lateness  : generator p95 %.3fms, max %.3fms\n", percentile(late, 0.95), percentile(late, 1))
	completed := float64(max(open.ok, 1))

	if !o.trace {
		set(endToEnd, "setup_s", median(setups))
		set(endToEnd, "throughput_ops_s", closedRate)
		set(endToEnd, "latency_p50_ms", p50)
		set(endToEnd, "latency_p95_ms", p95)
		set(endToEnd, "goodput", float64(good)/float64(open.sent))
		set(endToEnd, "ok_share", float64(closed.ok+open.ok)/float64(closed.sent+open.sent))
		set(endToEnd, "cpu_ms_per_op", millis(used.cpu)/completed)
		set(endToEnd, "alloc_kb_per_op", float64(used.totalAlloc)/1024/completed)
		set(endToEnd, "rss_peak_mb", peakRSSMB())
		fmt.Fprintf(out, "failed    : %.4f of %d sent ops (shed, errors and wrong answers, both phases)\n",
			float64(res.Failed)/float64(res.Attempted), res.Attempted)
		fmt.Fprintf(out, "setups    : %v s\n", setups)
		printMetrics(out, endToEnd, res.Metrics)
	} else {
		ops, err := rec.collect(ctx, st, keys, routed)
		if err != nil {
			return 0, err
		}
		layers, err := spanLayers(ops, keys, st.replicaIDs, routed)
		if err != nil {
			return 0, err
		}
		direct, err := directLayers(ctx, wl, cat, ref, tpl)
		if err != nil {
			if classify(err) != statusWrong {
				return 0, err
			}
			res.Correct = false
			fmt.Fprintf(out, "direct    : %v\n", err)
		}
		for k, v := range direct {
			layers[k] = v
		}
		hits1, misses1 := st.sessionStats()
		if lookups := (hits1 - hits0) + (misses1 - misses0); lookups > 0 {
			layers["serve.session_hit_ratio"] = float64(hits1-hits0) / float64(lookups)
		}
		spill1, err := st.spillovers(ctx)
		if err != nil {
			return 0, err
		}
		if routed {
			layers["router.spillovers"] = float64(spill1 - spill0)
		}
		layers["loadgen.lateness_p95_ms"] = percentile(late, 0.95)
		if used.allCPU > 0 {
			layers["runtime.gc_cpu_fraction"] = used.gcCPU / used.allCPU
		}
		layers["runtime.gc_count"] = float64(used.gcCycles)
		layers["trace.overhead_pct"] = 100 * (closedRate/tracedRate - 1)
		for _, d := range perLayer {
			set(perLayer, d.name, layers[d.name])
		}
		spans := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", wl.Name, o.seed))
		if err := writeSpans(spans, ops); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "spans     : %d traced open-loop ops written to %s\n", len(ops), spans)
		printMetrics(out, perLayer, res.Metrics)
		printChecks(out, wl, layers)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func (c counts) String() string {
	return fmt.Sprintf("sent=%d ok=%d shed=%d errors=%d wrong=%d", c.sent, c.ok, c.shed, c.errors, c.wrong)
}

func addCounts(a, b counts) counts {
	return counts{a.sent + b.sent, a.ok + b.ok, a.shed + b.shed, a.errors + b.errors, a.wrong + b.wrong}
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(out, "metric    : %-28s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// printChecks prints the traced run's attribution check and the layer
// split each workload was chosen to show.
func printChecks(out io.Writer, wl workloadDef, l map[string]float64) {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	share := l["trace.attributed_share"]
	fmt.Fprintf(out, "check     : server spans attribute %.1f%% of client latency (within 10%%: %s)\n",
		100*share, verdict(share >= 0.9 && share <= 1.1))
	switch wl.Request {
	case reqScheduleInline:
		front := l["dag.decode_us"] + l["dag.hash_us"] + l["router.routing_key_us"]
		fmt.Fprintf(out, "check     : decode+hash+routing key %.0fus vs Session.Schedule %.0fus (front end larger: %s)\n",
			front, l["session.schedule_us"], verdict(front > l["session.schedule_us"]))
	case reqScheduleID:
		fmt.Fprintf(out, "check     : serve decode %.0fus is %.2f%% of the handler's %.0fus (under 5%%: %s)\n",
			l["serve.decode_us"], 100*l["serve.decode_us"]/l["serve.handler_us"], l["serve.handler_us"],
			verdict(l["serve.decode_us"] < 0.05*l["serve.handler_us"]))
	}
}

// bringUp starts the service, registers the catalog where the workload
// sends by id, builds the request templates, and warms every session with
// one checked request per template.
func bringUp(ctx context.Context, wl workloadDef, cat *catalog, ref *reference, rec *recorder, traceKeep int) (*stack, [][]*template, error) {
	tpl, err := wl.templates(cat, ref)
	if err != nil {
		return nil, nil, err
	}
	st, err := startStack(rec, traceKeep)
	if err != nil {
		return nil, nil, err
	}
	if wl.Request != reqScheduleInline {
		registered := map[string]bool{}
		for gi, row := range tpl {
			for ci, t := range row {
				if registered[t.key] {
					continue
				}
				var times [][]float64
				if wl.Classes[ci].Pools == 4 {
					times = cat.times[gi]
				}
				if err := st.register(ctx, 0, cat.raws[gi], times, t.key); err != nil {
					st.close()
					return nil, nil, fmt.Errorf("registering graph %d: %w", gi, err)
				}
				registered[t.key] = true
			}
		}
	}
	snd := &sender{client: st.client, base: st.replicaURL(0)}
	if wl.Target == targetRouter {
		snd.base = st.routerURL
	}
	for gi, row := range tpl {
		for ci, t := range row {
			if err := snd.send(ctx, t, fmt.Sprintf("w%d-%d", gi, ci)); err != nil {
				st.close()
				return nil, nil, fmt.Errorf("warm-up of graph %d class %s: %w", gi, wl.Classes[ci].Name, err)
			}
		}
	}
	return st, tpl, nil
}
