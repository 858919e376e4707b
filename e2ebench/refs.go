package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	memsched "repro"
	"repro/serve"
	"repro/sweep"
	"repro/workload"
)

// Processor counts of the two platform shapes every workload uses.
var (
	procs2 = []int{2, 2}
	procs4 = []int{2, 1, 1, 1}
)

// catalog is one materialised workload catalog: the graphs, their wire
// JSON, and the pool-time matrices of the 4-pool variants.
type catalog struct {
	set   *workload.CatalogSet
	raws  []json.RawMessage
	times [][][]float64 // per graph; nil when no class needs 4 pools
}

// buildCatalog generates the workload's graphs and their wire encodings.
func buildCatalog(wl workloadDef) (*catalog, error) {
	set, err := wl.Catalog.Build()
	if err != nil {
		return nil, err
	}
	c := &catalog{set: set, raws: make([]json.RawMessage, len(set.Graphs))}
	for i, g := range set.Graphs {
		if c.raws[i], err = json.Marshal(g); err != nil {
			return nil, fmt.Errorf("encoding catalog graph %d: %w", i, err)
		}
	}
	if wl.needsTimes() {
		c.times = make([][][]float64, len(set.Graphs))
		for i, g := range set.Graphs {
			c.times[i] = poolTimes(g)
		}
	}
	return c, nil
}

func (wl workloadDef) needsTimes() bool {
	for _, c := range wl.Classes {
		if c.Pools == 4 {
			return true
		}
	}
	return false
}

// poolTimes derives a deterministic 4-pool processing-time matrix from a
// dual graph: the blue and red times, a slower second accelerator and a
// slower second host.
func poolTimes(g *memsched.Graph) [][]float64 {
	out := make([][]float64, g.NumTasks())
	for i := range out {
		t := g.Task(memsched.TaskID(i))
		out[i] = []float64{t.WBlue, t.WRed, 1.25 * t.WRed, 1.5 * t.WBlue}
	}
	return out
}

// answer is the expected outcome of one op template, computed by calling
// the library directly. A schedule answer has a makespan and peaks; a
// sweep answer has one entry per point.
type answer struct {
	makespan float64
	peaks    []int64
	points   []pointAnswer
}

type pointAnswer struct {
	feasible bool
	makespan float64
	peaks    []int64
}

// template is one distinct request of a workload: a (graph, class) pair
// with its prebuilt body and the answer it must produce.
type template struct {
	graph, class int
	path         string
	key          string // the graph id the request targets
	body         []byte
	want         *answer
}

// reference holds a workload's platforms and answers, computed once per
// run outside the timed set-up.
type reference struct {
	platforms [][]memsched.Platform // [graph][class]
	answers   [][]*answer           // [graph][class]
	ids       [][]string            // [graph][class] graph id of the request
	sessions  [][]*memsched.Session // [graph][class] warm local sessions
}

func pools(procs []int, capacity int64) []memsched.Pool {
	out := make([]memsched.Pool, len(procs))
	for i, p := range procs {
		out[i] = memsched.Pool{Procs: p, Capacity: capacity}
	}
	return out
}

func maxPeak(peaks []int64) int64 {
	var m int64
	for _, p := range peaks {
		if p > m {
			m = p
		}
	}
	return m
}

// sweepSpec is the engine form of the workload's sweep request.
func (wl workloadDef) sweepSpec(base memsched.Platform, keep bool) sweep.Spec {
	return sweep.Spec{
		Base:        base,
		Alphas:      wl.Sweep.Alphas,
		Schedulers:  wl.Sweep.Schedulers,
		Seeds:       []int64{0},
		Replay:      sweep.ReplayAuto,
		Workers:     1,
		KeepResults: keep,
	}
}

// computeReference solves every (graph, class) pair directly through
// memsched.Session (or sweep.Run) and validates each distinct answer with
// Result.Validate, skipping answers the validation cache already vouches
// for. A platform that cannot be scheduled is an error: the workloads are
// chosen so that no operation fails.
func computeReference(ctx context.Context, wl workloadDef, cat *catalog, vc *validationCache) (*reference, error) {
	n, k := len(cat.set.Graphs), len(wl.Classes)
	ref := &reference{
		platforms: make([][]memsched.Platform, n),
		answers:   make([][]*answer, n),
		ids:       make([][]string, n),
		sessions:  make([][]*memsched.Session, n),
	}
	var groups []validationGroup
	for gi, g := range cat.set.Graphs {
		ref.platforms[gi] = make([]memsched.Platform, k)
		ref.answers[gi] = make([]*answer, k)
		ref.ids[gi] = make([]string, k)
		ref.sessions[gi] = make([]*memsched.Session, k)
		dual, err := memsched.NewSession(g)
		if err != nil {
			return nil, fmt.Errorf("graph %d: %w", gi, err)
		}
		var pooled *memsched.Session
		if cat.times != nil {
			if pooled, err = memsched.NewSession(g, memsched.WithPoolTimes(cat.times[gi])); err != nil {
				return nil, fmt.Errorf("graph %d pool times: %w", gi, err)
			}
		}
		peakOf := map[int]int64{}
		for ci, c := range wl.Classes {
			sess, procs := dual, procs2
			if c.Pools == 4 {
				sess, procs = pooled, procs4
			}
			ref.sessions[gi][ci] = sess
			ref.ids[gi][ci] = sess.GraphHash()
			unbounded := memsched.NewPlatform(pools(procs, memsched.Unlimited)...)
			p := unbounded
			if c.Alpha > 0 {
				peak, ok := peakOf[c.Pools]
				if !ok {
					res, err := sess.Schedule(ctx, unbounded)
					if err != nil {
						return nil, fmt.Errorf("graph %d unbounded %d-pool peak: %w", gi, c.Pools, err)
					}
					peak = maxPeak(res.PeakResidency())
					peakOf[c.Pools] = peak
				}
				p = memsched.NewPlatform(pools(procs, int64(c.Alpha*float64(peak)))...)
			}
			ref.platforms[gi][ci] = p
			if wl.Request == reqSweepID {
				res, err := sweep.Run(ctx, sess, wl.sweepSpec(p, true))
				if err != nil {
					return nil, fmt.Errorf("graph %d sweep: %w", gi, err)
				}
				a := &answer{points: make([]pointAnswer, len(res.Points))}
				var feasible []*memsched.Result
				for i, pr := range res.Points {
					a.points[i] = pointAnswer{feasible: pr.Feasible, makespan: pr.Makespan, peaks: pr.Peaks}
					if pr.Feasible {
						feasible = append(feasible, pr.Result)
					}
				}
				ref.answers[gi][ci] = a
				groups = append(groups, validationGroup{vc.key(wl.Name, ref.ids[gi][ci], c.Name, a), feasible})
				continue
			}
			res, err := sess.Schedule(ctx, p)
			if err != nil {
				return nil, fmt.Errorf("graph %d class %s: %w", gi, c.Name, err)
			}
			a := &answer{makespan: res.Makespan(), peaks: res.PeakResidency()}
			ref.answers[gi][ci] = a
			groups = append(groups, validationGroup{vc.key(wl.Name, ref.ids[gi][ci], c.Name, a), []*memsched.Result{res}})
		}
	}
	if err := vc.validate(groups); err != nil {
		return nil, err
	}
	return ref, nil
}

// templates builds the request bodies of every (graph, class) pair for
// the given catalog (a fresh one per set-up, checked against the
// reference's graph ids).
func (wl workloadDef) templates(cat *catalog, ref *reference) ([][]*template, error) {
	out := make([][]*template, len(cat.set.Graphs))
	for gi := range cat.set.Graphs {
		out[gi] = make([]*template, len(wl.Classes))
		for ci, c := range wl.Classes {
			if c.Pools == 2 && cat.set.Hashes[gi] != ref.ids[gi][ci] {
				return nil, fmt.Errorf("catalog drift: graph %d hashes to %s, the reference holds %s", gi, cat.set.Hashes[gi], ref.ids[gi][ci])
			}
			p := ref.platforms[gi][ci]
			specs := make([]serve.PoolSpec, len(p.Pools))
			for i, pool := range p.Pools {
				specs[i] = serve.PoolSpec{Procs: pool.Procs}
				if pool.Capacity != memsched.Unlimited {
					capacity := pool.Capacity
					specs[i].Capacity = &capacity
				}
			}
			t := &template{graph: gi, class: ci, key: ref.ids[gi][ci], want: ref.answers[gi][ci], path: "/v1/schedule"}
			var req any
			switch wl.Request {
			case reqScheduleInline:
				req = serve.ScheduleRequest{Graph: cat.raws[gi], Pools: specs}
			case reqScheduleID:
				req = serve.ScheduleRequest{GraphID: t.key, Pools: specs}
			case reqSweepID:
				t.path = "/v1/sweep"
				req = serve.SweepRequest{GraphID: t.key, Pools: specs, Alphas: wl.Sweep.Alphas,
					Schedulers: wl.Sweep.Schedulers, Seeds: []int64{0}, Workers: 1, Replay: sweep.ReplayAuto}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			t.body = body
			out[gi][ci] = t
		}
	}
	return out, nil
}

// errWrong marks a response that differs from its reference answer.
var errWrong = errors.New("wrong answer")

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkResponse decodes a 200 response body and compares it with the
// template's answer bit for bit. It returns an error wrapping errWrong on
// a mismatch and a plain error on a malformed or failed response.
func checkResponse(t *template, body io.Reader) error {
	if t.path == "/v1/sweep" {
		return checkSweep(t.want, body)
	}
	var resp serve.ScheduleResponse
	if err := json.NewDecoder(body).Decode(&resp); err != nil {
		return fmt.Errorf("decoding schedule response: %w", err)
	}
	if !sameFloat(resp.Makespan, t.want.makespan) || !slices.Equal(resp.Peaks, t.want.peaks) {
		return fmt.Errorf("%w: makespan %v peaks %v, reference %v %v", errWrong, resp.Makespan, resp.Peaks, t.want.makespan, t.want.peaks)
	}
	return nil
}

// checkSweep reads a sweep NDJSON stream: every point record must match
// the reference point of its index, and the stream must end with a
// summary record covering every point.
func checkSweep(want *answer, body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	seen := 0
	for sc.Scan() {
		line := sc.Bytes()
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return fmt.Errorf("decoding sweep record: %w", err)
		}
		switch head.Type {
		case "point":
			var pt serve.SweepPoint
			if err := json.Unmarshal(line, &pt); err != nil {
				return fmt.Errorf("decoding sweep point: %w", err)
			}
			if pt.Index != seen || pt.Index >= len(want.points) {
				return fmt.Errorf("%w: sweep point %d arrived at position %d", errWrong, pt.Index, seen)
			}
			w := want.points[pt.Index]
			if pt.Feasible != w.feasible || !sameFloat(pt.Makespan, w.makespan) || !slices.Equal(pt.Peaks, w.peaks) {
				return fmt.Errorf("%w: sweep point %d differs from the reference", errWrong, pt.Index)
			}
			seen++
		case "summary":
			var sum serve.SweepSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return fmt.Errorf("decoding sweep summary: %w", err)
			}
			if seen != len(want.points) || sum.Points != seen {
				return fmt.Errorf("%w: sweep summary after %d of %d points", errWrong, seen, len(want.points))
			}
			return nil
		case "error":
			return fmt.Errorf("sweep stream failed: %s", line)
		default:
			return fmt.Errorf("unknown sweep record type %q", head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading sweep stream: %w", err)
	}
	return fmt.Errorf("sweep stream ended after %d points without a summary", seen)
}

// validationCache remembers which reference answers already passed
// Result.Validate, keyed by a digest of the workload, the graph id, the
// platform class and the exact answer. Any change in an answer changes the
// key, so a changed result is always validated again; an unchanged one is
// validated once per build directory instead of once per run (validating
// a 3000-task schedule takes seconds).
type validationCache struct {
	path string
	seen map[string]bool
}

func openValidationCache(path string) (*validationCache, error) {
	vc := &validationCache{path: path, seen: map[string]bool{}}
	if path == "" {
		return vc, nil
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return vc, nil
	}
	if err != nil {
		return nil, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) > 0 {
			vc.seen[string(line)] = true
		}
	}
	return vc, nil
}

func (vc *validationCache) key(wl, id, class string, a *answer) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%x\x00%v\x00", wl, id, class, math.Float64bits(a.makespan), a.peaks)
	for _, p := range a.points {
		fmt.Fprintf(h, "%t %x %v\x00", p.feasible, math.Float64bits(p.makespan), p.peaks)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validationGroup is the results of one answer and the cache key that
// vouches for all of them once they pass.
type validationGroup struct {
	key     string
	results []*memsched.Result
}

// validate runs Result.Validate on every result of the groups whose key is
// not cached, on one worker per CPU, then records the new keys.
func (vc *validationCache) validate(groups []validationGroup) error {
	var todo []*memsched.Result
	var fresh []string
	for _, g := range groups {
		if !vc.seen[g.key] {
			todo = append(todo, g.results...)
			fresh = append(fresh, g.key)
		}
	}
	if err := parallel(len(todo), func(i int) error {
		if err := todo[i].Validate(); err != nil {
			return fmt.Errorf("reference answer fails validation: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	if len(fresh) == 0 || vc.path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(vc.path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(vc.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, k := range fresh {
		vc.seen[k] = true
		fmt.Fprintln(f, k)
	}
	return f.Close()
}

// parallel calls fn(0..n-1) on one worker per CPU and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		once  sync.Once
		first error
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
