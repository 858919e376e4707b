// Package dag provides the weighted task-graph substrate used throughout the
// library. A Graph is a directed acyclic graph whose nodes are tasks with one
// processing time per resource type (blue and red, following the paper's
// colour convention for the CPU-side and accelerator-side memories) and whose
// edges carry a data file of a given size together with the time needed to
// move that file across memories.
//
// The package offers construction, validation, topological orders, the
// upward-rank priority of HEFT, memory requirement queries, and JSON / DOT
// serialisation. It contains no scheduling logic; see internal/multi for
// the heuristics.
package dag

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/platform"
)

// TaskID identifies a task inside one Graph. IDs are dense: the first task
// added receives ID 0, the next ID 1, and so on.
type TaskID int

// EdgeID identifies an edge inside one Graph, densely numbered in insertion
// order.
type EdgeID int

// Task is a node of the graph. WBlue and WRed are the processing times of the
// task on a blue (CPU-side) and red (accelerator-side) processor. A task with
// both times equal to zero is a fictitious task (the paper uses chains of
// those to model broadcasts).
type Task struct {
	ID    TaskID
	Name  string
	WBlue float64
	WRed  float64
}

// IsFictitious reports whether the task has zero cost on both resources.
func (t Task) IsFictitious() bool { return t.WBlue == 0 && t.WRed == 0 }

// Edge is a dependency (From, To) carrying a file of size File that must
// reside in memory from the producer's start to the consumer's completion,
// and that takes Comm time units to move between memories when producer and
// consumer live on different ones.
type Edge struct {
	ID   EdgeID
	From TaskID
	To   TaskID
	File int64
	Comm float64
}

// Graph is a mutable DAG under construction and an immutable one once
// validated. The zero value is not usable; call New.
type Graph struct {
	tasks []Task
	edges []Edge

	out [][]EdgeID // outgoing edge IDs per task
	in  [][]EdgeID // incoming edge IDs per task

	edgeIndex map[[2]TaskID]EdgeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{edgeIndex: make(map[[2]TaskID]EdgeID)}
}

// AddTask appends a task with the given name and processing times and returns
// its ID. Negative processing times are rejected by Validate, not here, so
// that construction code can stay error-free.
func (g *Graph) AddTask(name string, wBlue, wRed float64) TaskID {
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, Task{ID: id, Name: name, WBlue: wBlue, WRed: wRed})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge appends a dependency from src to dst carrying a file of the given
// size and cross-memory communication time, and returns its ID. It panics on
// out-of-range endpoints (a programming error) and returns an error on
// duplicate edges or self-loops.
func (g *Graph) AddEdge(src, dst TaskID, file int64, comm float64) (EdgeID, error) {
	if !g.validID(src) || !g.validID(dst) {
		panic(fmt.Sprintf("dag: AddEdge endpoints out of range: %d -> %d (have %d tasks)", src, dst, len(g.tasks)))
	}
	if src == dst {
		return 0, fmt.Errorf("dag: self-loop on task %d (%s)", src, g.tasks[src].Name)
	}
	key := [2]TaskID{src, dst}
	if _, dup := g.edgeIndex[key]; dup {
		return 0, fmt.Errorf("dag: duplicate edge %d -> %d", src, dst)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: src, To: dst, File: file, Comm: comm})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	g.edgeIndex[key] = id
	return id, nil
}

// MustAddEdge is AddEdge that panics on error; convenient in generators whose
// construction is known to be well-formed.
func (g *Graph) MustAddEdge(src, dst TaskID, file int64, comm float64) EdgeID {
	id, err := g.AddEdge(src, dst, file, comm)
	if err != nil {
		panic(err)
	}
	return id
}

func (g *Graph) validID(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Task returns the task with the given ID. It panics on out-of-range IDs.
func (g *Graph) Task(id TaskID) Task {
	if !g.validID(id) {
		panic(fmt.Sprintf("dag: task %d out of range (have %d)", id, len(g.tasks)))
	}
	return g.tasks[id]
}

// Edge returns the edge with the given ID. It panics on out-of-range IDs.
func (g *Graph) Edge(id EdgeID) Edge {
	if id < 0 || int(id) >= len(g.edges) {
		panic(fmt.Sprintf("dag: edge %d out of range (have %d)", id, len(g.edges)))
	}
	return g.edges[id]
}

// EdgeBetween returns the edge from src to dst, if any.
func (g *Graph) EdgeBetween(src, dst TaskID) (Edge, bool) {
	id, ok := g.edgeIndex[[2]TaskID{src, dst}]
	if !ok {
		return Edge{}, false
	}
	return g.edges[id], true
}

// Edges returns the internal edge slice, indexed by EdgeID in insertion
// order. The returned slice must not be modified; it exists so hot loops can
// avoid the per-call bounds check and struct copy of Edge.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of the edges leaving task id. The returned slice must
// not be modified.
func (g *Graph) Out(id TaskID) []EdgeID { return g.out[id] }

// In returns the IDs of the edges entering task id. The returned slice must
// not be modified.
func (g *Graph) In(id TaskID) []EdgeID { return g.in[id] }

// Children returns the task IDs directly reachable from id, in edge-insertion
// order. A fresh slice is returned.
func (g *Graph) Children(id TaskID) []TaskID {
	out := g.out[id]
	kids := make([]TaskID, len(out))
	for i, e := range out {
		kids[i] = g.edges[e].To
	}
	return kids
}

// Parents returns the task IDs with an edge into id, in edge-insertion order.
// A fresh slice is returned.
func (g *Graph) Parents(id TaskID) []TaskID {
	in := g.in[id]
	ps := make([]TaskID, len(in))
	for i, e := range in {
		ps[i] = g.edges[e].From
	}
	return ps
}

// Sources returns the tasks with no parents, in ID order.
func (g *Graph) Sources() []TaskID {
	var s []TaskID
	for i := range g.tasks {
		if len(g.in[i]) == 0 {
			s = append(s, TaskID(i))
		}
	}
	return s
}

// Sinks returns the tasks with no children, in ID order.
func (g *Graph) Sinks() []TaskID {
	var s []TaskID
	for i := range g.tasks {
		if len(g.out[i]) == 0 {
			s = append(s, TaskID(i))
		}
	}
	return s
}

// MemReq returns the memory requirement of executing task id as defined in
// §3.2 of the paper: the sum of all its input file sizes plus all its output
// file sizes.
func (g *Graph) MemReq(id TaskID) int64 {
	var sum int64
	for _, e := range g.in[id] {
		sum += g.edges[e].File
	}
	for _, e := range g.out[id] {
		sum += g.edges[e].File
	}
	return sum
}

// TotalFiles returns the sum of all edge file sizes.
func (g *Graph) TotalFiles() int64 {
	var sum int64
	for _, e := range g.edges {
		sum += e.File
	}
	return sum
}

// TotalWork returns the sum over tasks of the processing time on the given
// resource: blue if blue is true, red otherwise.
func (g *Graph) TotalWork(blue bool) float64 {
	var sum float64
	for _, t := range g.tasks {
		if blue {
			sum += t.WBlue
		} else {
			sum += t.WRed
		}
	}
	return sum
}

// TotalMinWork returns the sum over tasks of min(WBlue, WRed): the
// aggregate work of exact.LowerBound on a graph's dual instance, which the
// exact tests compare against.
func (g *Graph) TotalMinWork() float64 {
	var sum float64
	for _, t := range g.tasks {
		sum += min(t.WBlue, t.WRed)
	}
	return sum
}

// MaxTime returns the coarse horizon used by the ILP as Mmax: the sum of all
// blue times, all red times and all communication times. Any schedule that
// never idles unnecessarily finishes before this bound.
func (g *Graph) MaxTime() float64 {
	var sum float64
	for _, t := range g.tasks {
		sum += t.WBlue + t.WRed
	}
	for _, e := range g.edges {
		sum += e.Comm
	}
	return sum
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks:     append([]Task(nil), g.tasks...),
		edges:     append([]Edge(nil), g.edges...),
		out:       make([][]EdgeID, len(g.out)),
		in:        make([][]EdgeID, len(g.in)),
		edgeIndex: make(map[[2]TaskID]EdgeID, len(g.edgeIndex)),
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	for k, v := range g.edgeIndex {
		c.edgeIndex[k] = v
	}
	return c
}

// ErrCyclic is returned by Validate when the graph contains a cycle.
var ErrCyclic = errors.New("dag: graph contains a cycle")

// Validate checks structural soundness: non-negative processing times, file
// sizes and communication times, totals every schedule can represent, and
// acyclicity.
//
// Every list-schedule time is a sum of the durations of distinct tasks and
// transfers, and every memory residency is a sum of distinct file sizes. So
// the sum over tasks of max(WBlue, WRed) plus every Comm must be finite,
// and the sum of every File must not exceed platform.Unlimited. The bound
// is conservative: it counts all work as if run in sequence and all files
// as resident at once, so it also rejects some graphs no schedule would
// overflow, such as two independent tasks of 1e308 each.
func (g *Graph) Validate() error {
	var work float64
	for _, t := range g.tasks {
		if t.WBlue < 0 || t.WRed < 0 {
			return fmt.Errorf("dag: task %d (%s) has negative processing time", t.ID, t.Name)
		}
		work += max(t.WBlue, t.WRed)
	}
	var files int64
	for _, e := range g.edges {
		if e.File < 0 {
			return fmt.Errorf("dag: edge %d -> %d has negative file size %d", e.From, e.To, e.File)
		}
		if e.Comm < 0 {
			return fmt.Errorf("dag: edge %d -> %d has negative communication time %g", e.From, e.To, e.Comm)
		}
		if e.File > platform.Unlimited-files {
			return fmt.Errorf("dag: file sizes sum past %d at edge %d -> %d; "+
				"the sum over all edges must stay within the unlimited capacity "+
				"(a conservative bound: it counts every file as resident at once)", platform.Unlimited, e.From, e.To)
		}
		files += e.File
		work += e.Comm
	}
	if math.IsInf(work, 0) || math.IsNaN(work) {
		return fmt.Errorf("dag: task and communication times sum to %g; "+
			"the sum over tasks of max(wblue, wred) plus every comm must be finite "+
			"(a conservative bound: it counts all work as if run in sequence)", work)
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	return nil
}
