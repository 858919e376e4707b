package multi

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dag"
)

// Event is one row of a schedule timeline: a task execution or a
// cross-pool communication.
type Event struct {
	Kind  string // "task" or "comm"
	Label string
	Start float64
	End   float64
	Proc  int // -1 for communications
}

// poolColours holds the lane and box colours of the pools, in pool order
// and cycled past the last: blue and red, the paper's two memories, first.
var poolColours = []struct{ lane, fill string }{
	{"#eef3fb", "#4a86c8"},
	{"#fbeeee", "#c85b4a"},
	{"#eef8ef", "#4aa05b"},
	{"#f5eefb", "#8a5bc8"},
}

// poolName names pool k in rendered output: blue and red on the paper's
// 2-pool machine, pool0, pool1, ... otherwise.
func (s *Schedule) poolName(k int) string {
	if s.Platform.NumPools() == 2 {
		return [2]string{"blue", "red"}[k]
	}
	return fmt.Sprintf("pool%d", k)
}

// taskLabel returns the name of task id, or T<id> when it has none.
func taskLabel(g *dag.Graph, id dag.TaskID) string {
	if name := g.Task(id).Name; name != "" {
		return name
	}
	return fmt.Sprintf("T%d", id)
}

// Timeline flattens the schedule into a list of events sorted by start time
// (ties broken by processor then label), convenient for printing and for
// golden tests.
func (s *Schedule) Timeline() []Event {
	g := s.Inst.G
	var evs []Event
	for i := 0; i < g.NumTasks(); i++ {
		id := dag.TaskID(i)
		evs = append(evs, Event{
			Kind:  "task",
			Label: taskLabel(g, id),
			Start: s.Tasks[i].Start,
			End:   s.Finish(id),
			Proc:  s.Tasks[i].Proc,
		})
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !s.IsCross(dag.EdgeID(e)) || math.IsNaN(s.CommStart[e]) {
			continue
		}
		edge := g.Edge(dag.EdgeID(e))
		evs = append(evs, Event{
			Kind:  "comm",
			Label: fmt.Sprintf("%d->%d", edge.From, edge.To),
			Start: s.CommStart[e],
			End:   s.CommStart[e] + edge.Comm,
			Proc:  -1,
		})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		if evs[i].Proc != evs[j].Proc {
			return evs[i].Proc < evs[j].Proc
		}
		return evs[i].Label < evs[j].Label
	})
	return evs
}

// Render prints the makespan, the peak of every pool and the timeline as a
// fixed-width table, one line per event.
func (s *Schedule) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%g", s.Makespan())
	for k, peak := range s.MemoryPeaks() {
		fmt.Fprintf(&b, " %sPeak=%d", s.poolName(k), peak)
	}
	b.WriteByte('\n')
	for _, e := range s.Timeline() {
		where := "comm"
		if e.Proc >= 0 {
			where = fmt.Sprintf("proc %d (%s)", e.Proc, s.poolName(s.Platform.PoolOf(e.Proc)))
		}
		fmt.Fprintf(&b, "%8.2f %8.2f  %-5s %-12s on %s\n", e.Start, e.End, e.Kind, e.Label, where)
	}
	return b.String()
}

// SVG renders the schedule as a self-contained Gantt chart: one row per
// processor in pool order, a communications row, and a step plot of the
// usage of each pool underneath. The output is deterministic, suitable for
// golden tests and documentation.
func (s *Schedule) SVG() string {
	const (
		width     = 960
		rowH      = 26
		leftPad   = 90
		topPad    = 24
		memPlotH  = 72
		rightPad  = 16
		labelFont = 11
	)
	g, p := s.Inst.G, s.Platform
	ms := s.Makespan()
	if ms <= 0 {
		ms = 1
	}
	scale := float64(width-leftPad-rightPad) / ms
	x := func(t float64) float64 { return leftPad + t*scale }
	colours := func(k int) struct{ lane, fill string } { return poolColours[k%len(poolColours)] }

	pools := p.NumPools()
	procs := p.TotalProcs()
	rows := procs + 1 // + communications row
	chartH := rows * rowH
	height := topPad + chartH + pools*memPlotH + (pools+1)*rowH

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="%d">`+"\n",
		width, height, labelFont)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	// Row labels and lanes.
	for proc := 0; proc < procs; proc++ {
		y := topPad + proc*rowH
		pool := p.PoolOf(proc)
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
			leftPad, y, width-leftPad-rightPad, rowH-2, colours(pool).lane)
		fmt.Fprintf(&b, `<text x="4" y="%d">proc %d (%s)</text>`+"\n",
			y+rowH-9, proc, s.poolName(pool))
	}
	commY := topPad + procs*rowH
	fmt.Fprintf(&b, `<text x="4" y="%d">transfers</text>`+"\n", commY+rowH-9)

	// Task boxes, sorted for determinism.
	order := make([]dag.TaskID, g.NumTasks())
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sort.Slice(order, func(a, b int) bool { return s.Tasks[order[a]].Start < s.Tasks[order[b]].Start })
	for _, id := range order {
		pl := s.Tasks[id]
		y := topPad + pl.Proc*rowH
		w := s.Duration(id) * scale
		if w < 1 {
			w = 1 // zero-duration (fictitious) tasks stay visible
		}
		name := taskLabel(g, id)
		fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s" stroke="black" stroke-width="0.4"><title>%s [%.2f,%.2f)</title></rect>`+"\n",
			x(pl.Start), y+2, w, rowH-6, colours(s.PoolOf(id)).fill, name, pl.Start, s.Finish(id))
		if w > 28 {
			fmt.Fprintf(&b, `<text x="%.2f" y="%d" fill="white">%s</text>`+"\n", x(pl.Start)+2, y+rowH-9, name)
		}
	}

	// Communications.
	for e := 0; e < g.NumEdges(); e++ {
		if !s.IsCross(dag.EdgeID(e)) || math.IsNaN(s.CommStart[e]) {
			continue
		}
		edge := g.Edge(dag.EdgeID(e))
		w := edge.Comm * scale
		if w < 1 {
			w = 1
		}
		fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="#999" stroke="black" stroke-width="0.3"><title>%d-&gt;%d [%.2f,%.2f)</title></rect>`+"\n",
			x(s.CommStart[e]), commY+4, w, rowH-10, edge.From, edge.To, s.CommStart[e], s.CommStart[e]+edge.Comm)
	}

	// Memory step plots.
	peaks := s.MemoryPeaks()
	rs := s.residencies()
	for k, peak := range peaks {
		y0 := topPad + chartH + rowH + k*(memPlotH+rowH)
		fmt.Fprintf(&b, `<text x="4" y="%d">%s mem (peak %d)</text>`+"\n", y0+memPlotH/2, s.poolName(k), peak)
		if peak == 0 {
			peak = 1
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ccc"/>`+"\n",
			leftPad, y0+memPlotH, width-rightPad, y0+memPlotH)
		var path strings.Builder
		cur := int64(0)
		fmt.Fprintf(&path, "M %.2f %.2f", x(0), float64(y0+memPlotH))
		for _, pt := range usageSteps(rs, k) {
			yv := float64(y0+memPlotH) - float64(pt.usage)/float64(peak)*float64(memPlotH-4)
			fmt.Fprintf(&path, " L %.2f %.2f", x(pt.t), float64(y0+memPlotH)-float64(cur)/float64(peak)*float64(memPlotH-4))
			fmt.Fprintf(&path, " L %.2f %.2f", x(pt.t), yv)
			cur = pt.usage
		}
		fmt.Fprintf(&path, " L %.2f %.2f", x(ms), float64(y0+memPlotH)-float64(cur)/float64(peak)*float64(memPlotH-4))
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.4"/>`+"\n", path.String(), colours(k).fill)
	}

	// Time axis.
	axisY := topPad + chartH + 4
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", leftPad, axisY, width-rightPad, axisY)
	fmt.Fprintf(&b, `<text x="%d" y="%d">0</text>`+"\n", leftPad, axisY+14)
	fmt.Fprintf(&b, `<text x="%.2f" y="%d">%.6g</text>`+"\n", x(ms)-30, axisY+14, ms)

	b.WriteString("</svg>\n")
	return b.String()
}

type usagePoint struct {
	t     float64
	usage int64
}

// usageSteps returns the cumulative usage of pool k at each change point
// of its residencies rs, in time order.
func usageSteps(rs []residency, k int) []usagePoint {
	type ev struct {
		t     float64
		delta int64
	}
	var evs []ev
	for _, r := range rs {
		if r.pool != k {
			continue
		}
		evs = append(evs, ev{r.from, r.size}, ev{r.to, -r.size})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	var out []usagePoint
	var cur int64
	for _, e := range evs {
		cur += e.delta
		if len(out) > 0 && out[len(out)-1].t == e.t {
			out[len(out)-1].usage = cur
			continue
		}
		out = append(out, usagePoint{e.t, cur})
	}
	return out
}
