// Package ilp builds the paper's Integer Linear Program formulation of the
// memory-constrained scheduling problem (§4, Figures 5-7) and decodes its
// solutions back into schedules. Together with internal/lp and internal/mip
// it plays the role the CPLEX solver plays in the paper: computing optimal
// schedules for small instances so the heuristics' absolute performance can
// be assessed.
//
// The model is the paper's dual-memory one: it takes a 2-pool instance and
// platform, pool 0 blue and pool 1 red, and one binary b_i per task picks
// the task's pool. Build rejects other pool counts.
//
// Faithfulness notes (the report has a few internal inconsistencies; this
// implementation follows the variant that makes the constraint system
// coherent and documents each choice):
//
//   - Figure 5 says b_i = 1 means blue, but constraints (13), (24) and the
//     Figure-7 version of (26)-(27) are only consistent with b_i = 1 meaning
//     *red* (e.g. (13b) forces p_i >= P1+1 when b_i = 1). We adopt b_i = 1
//     <=> red, pool 1.
//   - Constraint (27) bounds the memory of the *destination* of the
//     communication (its indicator terms use delta_kj and delta_pj), so its
//     right-hand side uses b_j; Figures 6 and 7 disagree on the subscript.
//   - Diagonal indicator variables are substituted by their forced values:
//     m_ii = 1 and reflexive c'_ee = 1 (both from the >=1 pairing
//     constraints (14)/(17)), sigma_ii = 0 and d'_ee = 0 (from (15)/(18)),
//     delta_ii = 1 (from (23)). This both shrinks the model and matches how
//     the memory constraint (26) counts a task's own input and output
//     files.
//
// The model has O(m^2 + mn) variables and constraints, exactly as the paper
// states, so only small instances are tractable; Build rejects graphs whose
// model would exceed a configurable size.
package ilp

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/multi"
)

// Model is the assembled ILP for one (instance, platform) pair.
type Model struct {
	In   *multi.Instance
	P    multi.Platform
	LP   *lp.Problem
	Ints []int   // variables constrained to be integral (all binaries)
	Mmax float64 // the big-M horizon

	// Variable indices.
	vMakespan int
	vT        []int // start time per task
	vTau      []int // start time per communication (edge)
	vW        []int // actual work per task
	vP        []int // processor index per task (continuous, 1-based)
	vB        []int // 1 iff the task runs on pool 1, the red memory

	vEps    map[[2]int]int // eps[i][j], ordered pairs i != j
	vDelta  map[[2]int]int // delta[i][j], unordered pairs i < j
	vM      map[[2]int]int // m[i][j], ordered pairs i != j
	vSigma  map[[2]int]int // sigma[i][j], ordered pairs i != j
	vMp     map[[2]int]int // m'[k][e], task x edge
	vSigmaP map[[2]int]int // sigma'[k][e], task x edge
	vC      map[[2]int]int // c[e][k], edge x task
	vD      map[[2]int]int // d[e][k], edge x task
	vCp     map[[2]int]int // c'[e][f], ordered edge pairs e != f
	vDp     map[[2]int]int // d'[e][f], ordered edge pairs e != f
	vAlpha  map[[2]int]int // alpha[e][i], edge x task (linearisation)
	vBeta   map[[2]int]int // beta[e][i]
	vAlphaP map[[2]int]int // alpha'[e][f], all edge pairs
	vBetaP  map[[2]int]int // beta'[e][f]

	rows map[string]int // constraint-family row counts, for tests/reports
}

// MaxVariables guards against accidentally building an intractable model.
const MaxVariables = 20000

// expr is a small linear expression: sum of coeff*var plus a constant. It
// lets constraint builders treat substituted diagonal variables (constants)
// and real variables uniformly.
type expr struct {
	coeffs map[int]float64
	c      float64
}

func newExpr() *expr { return &expr{coeffs: map[int]float64{}} }

func (e *expr) add(v int, coef float64) *expr {
	if v < 0 {
		panic("ilp: negative variable index in expression")
	}
	e.coeffs[v] += coef
	return e
}

func (e *expr) addConst(c float64) *expr { e.c += c; return e }

// addTerm adds coef * t where t is either a variable or a constant.
func (e *expr) addTerm(t term, coef float64) *expr {
	if t.isVar {
		return e.add(t.v, coef)
	}
	return e.addConst(coef * t.c)
}

// term is a variable-or-constant.
type term struct {
	isVar bool
	v     int
	c     float64
}

func varTerm(v int) term       { return term{isVar: true, v: v} }
func constTerm(c float64) term { return term{c: c} }

// Build assembles the ILP for in on the 2-pool platform p.
func Build(in *multi.Instance, p multi.Platform) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.NumPools() != 2 {
		return nil, fmt.Errorf("ilp: the model has one memory binary per task and needs 2 pools, got %d", p.NumPools())
	}
	if err := in.Validate(p); err != nil {
		return nil, err
	}
	n, m := in.G.NumTasks(), in.G.NumEdges()
	est := 1 + 4*n + m + 4*n*n + 6*n*m + 4*m*m
	if est > MaxVariables {
		return nil, fmt.Errorf("ilp: model would need ~%d variables (> %d); the ILP is only meant for small instances", est, MaxVariables)
	}

	md := &Model{
		In: in, P: p,
		LP:   &lp.Problem{},
		Mmax: horizon(in),
		vEps: map[[2]int]int{}, vDelta: map[[2]int]int{},
		vM: map[[2]int]int{}, vSigma: map[[2]int]int{},
		vMp: map[[2]int]int{}, vSigmaP: map[[2]int]int{},
		vC: map[[2]int]int{}, vD: map[[2]int]int{},
		vCp: map[[2]int]int{}, vDp: map[[2]int]int{},
		vAlpha: map[[2]int]int{}, vBeta: map[[2]int]int{},
		vAlphaP: map[[2]int]int{}, vBetaP: map[[2]int]int{},
		rows: map[string]int{},
	}
	md.build()
	return md, nil
}

// horizon returns the big-M horizon Mmax: the sum of every task's time on
// both pools and of every communication time. Any schedule that never idles
// unnecessarily finishes before this bound.
func horizon(in *multi.Instance) float64 {
	var sum float64
	for i := range in.Times {
		sum += in.Time(dag.TaskID(i), 0) + in.Time(dag.TaskID(i), 1)
	}
	for _, e := range in.G.Edges() {
		sum += e.Comm
	}
	return sum
}

func (md *Model) newVar() int {
	v := md.LP.NumVars
	md.LP.NumVars++
	return v
}

func (md *Model) newBinary() int {
	v := md.newVar()
	md.Ints = append(md.Ints, v)
	md.constrain("binary-ub", newExpr().add(v, 1), lp.LE, 1)
	return v
}

// constrain appends lhs (sense) rhs, folding the expression constant into
// the right-hand side, and counts the row under the given family name.
func (md *Model) constrain(family string, lhs *expr, sense lp.Sense, rhs float64) {
	md.LP.AddConstraint(lhs.coeffs, sense, rhs-lhs.c)
	md.rows[family]++
}

// RowCount reports how many rows a constraint family produced.
func (md *Model) RowCount(family string) int { return md.rows[family] }

// Accessors for the indicator terms, substituting forced diagonal values.

func (md *Model) mTerm(i, j int) term {
	if i == j {
		return constTerm(1) // forced by (14)
	}
	return varTerm(md.vM[[2]int{i, j}])
}

func (md *Model) sigmaTerm(i, j int) term {
	if i == j {
		return constTerm(0) // forced by (15)
	}
	return varTerm(md.vSigma[[2]int{i, j}])
}

func (md *Model) deltaTerm(i, j int) term {
	if i == j {
		return constTerm(1) // forced by (23)
	}
	if i > j {
		i, j = j, i
	}
	return varTerm(md.vDelta[[2]int{i, j}])
}

func (md *Model) cpTerm(e, f int) term {
	if e == f {
		return constTerm(1) // forced by (17)
	}
	return varTerm(md.vCp[[2]int{e, f}])
}

func (md *Model) dpTerm(e, f int) term {
	if e == f {
		return constTerm(0) // forced by (18)
	}
	return varTerm(md.vDp[[2]int{e, f}])
}

func (md *Model) build() {
	g, p := md.In.G, md.P
	n, m := g.NumTasks(), g.NumEdges()
	Mmax := md.Mmax
	totalProcs := float64(p.TotalProcs())

	// --- Variables (Figure 5) ---
	md.vMakespan = md.newVar()
	md.vT = make([]int, n)
	md.vW = make([]int, n)
	md.vP = make([]int, n)
	md.vB = make([]int, n)
	for i := 0; i < n; i++ {
		md.vT[i] = md.newVar()
		md.vW[i] = md.newVar()
		md.vP[i] = md.newVar()
		md.vB[i] = md.newBinary()
	}
	md.vTau = make([]int, m)
	for e := 0; e < m; e++ {
		md.vTau[e] = md.newVar()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			md.vEps[[2]int{i, j}] = md.newBinary()
			md.vM[[2]int{i, j}] = md.newBinary()
			md.vSigma[[2]int{i, j}] = md.newBinary()
			if i < j {
				md.vDelta[[2]int{i, j}] = md.newBinary()
			}
		}
	}
	for k := 0; k < n; k++ {
		for e := 0; e < m; e++ {
			md.vMp[[2]int{k, e}] = md.newBinary()
			md.vSigmaP[[2]int{k, e}] = md.newBinary()
			md.vC[[2]int{e, k}] = md.newBinary()
			md.vD[[2]int{e, k}] = md.newBinary()
			md.vAlpha[[2]int{e, k}] = md.newBinary()
			md.vBeta[[2]int{e, k}] = md.newBinary()
		}
	}
	for e := 0; e < m; e++ {
		for f := 0; f < m; f++ {
			if e != f {
				md.vCp[[2]int{e, f}] = md.newBinary()
				md.vDp[[2]int{e, f}] = md.newBinary()
			}
			md.vAlphaP[[2]int{e, f}] = md.newBinary()
			md.vBetaP[[2]int{e, f}] = md.newBinary()
		}
	}

	// Objective: minimise the makespan.
	md.LP.Objective = make([]float64, md.LP.NumVars)
	md.LP.Objective[md.vMakespan] = 1

	commDur := func(e int) (*expr, float64) {
		// Actual duration of communication e as an expression:
		// (1 - delta_ij) * C_ij.
		edge := g.Edge(dag.EdgeID(e))
		dt := md.deltaTerm(int(edge.From), int(edge.To))
		ex := newExpr().addConst(edge.Comm)
		ex.addTerm(dt, -edge.Comm)
		return ex, edge.Comm
	}

	// --- Constraints (Figure 6) ---
	// (1) t_i + w_i <= M
	for i := 0; i < n; i++ {
		md.constrain("1-makespan", newExpr().add(md.vT[i], 1).add(md.vW[i], 1).add(md.vMakespan, -1), lp.LE, 0)
	}
	// (2) t_i + w_i <= tau_ij
	for e := 0; e < m; e++ {
		i := int(g.Edge(dag.EdgeID(e)).From)
		md.constrain("2-comm-after-src", newExpr().add(md.vT[i], 1).add(md.vW[i], 1).add(md.vTau[e], -1), lp.LE, 0)
	}
	// (3) tau_ij + (1-delta_ij)C_ij <= t_j
	for e := 0; e < m; e++ {
		edge := g.Edge(dag.EdgeID(e))
		dur, _ := commDur(e)
		ex := newExpr().add(md.vTau[e], 1).add(md.vT[int(edge.To)], -1)
		for v, cf := range dur.coeffs {
			ex.add(v, cf)
		}
		ex.addConst(dur.c)
		md.constrain("3-comm-before-dst", ex, lp.LE, 0)
	}
	// Big-M indicator pairs. defineOrder(x, y, v): v=1 if y > x
	// ("y - x - v*Mmax <= 0" and "y - x + (1-v)*Mmax >= 0").
	defineOrder := func(family string, xVars *expr, yVars *expr, v int) {
		a := newExpr()
		for vi, cf := range yVars.coeffs {
			a.add(vi, cf)
		}
		a.addConst(yVars.c)
		for vi, cf := range xVars.coeffs {
			a.add(vi, -cf)
		}
		a.addConst(-xVars.c)
		b := newExpr()
		for vi, cf := range a.coeffs {
			b.add(vi, cf)
		}
		b.addConst(a.c)
		a.add(v, -Mmax)
		md.constrain(family, a, lp.LE, 0)
		b.add(v, -Mmax)
		md.constrain(family, b, lp.GE, -Mmax)
	}
	startOf := func(i int) *expr { return newExpr().add(md.vT[i], 1) }
	finishOf := func(i int) *expr { return newExpr().add(md.vT[i], 1).add(md.vW[i], 1) }
	commStart := func(e int) *expr { return newExpr().add(md.vTau[e], 1) }
	commEnd := func(e int) *expr {
		ex := newExpr().add(md.vTau[e], 1)
		dur, _ := commDur(e)
		for v, cf := range dur.coeffs {
			ex.add(v, cf)
		}
		ex.addConst(dur.c)
		return ex
	}

	// (4) m_ij = 1 if t_j > t_i (i != j)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				defineOrder("4-m", startOf(i), startOf(j), md.vM[[2]int{i, j}])
			}
		}
	}
	// (5) m'_kij = 1 if tau_ij > t_k
	for k := 0; k < n; k++ {
		for e := 0; e < m; e++ {
			defineOrder("5-mp", startOf(k), commStart(e), md.vMp[[2]int{k, e}])
		}
	}
	// (6) sigma_ij = 1 if t_j > t_i + w_i
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				defineOrder("6-sigma", finishOf(i), startOf(j), md.vSigma[[2]int{i, j}])
			}
		}
	}
	// (7) sigma'_kij = 1 if tau_ij > t_k + w_k
	for k := 0; k < n; k++ {
		for e := 0; e < m; e++ {
			defineOrder("7-sigmap", finishOf(k), commStart(e), md.vSigmaP[[2]int{k, e}])
		}
	}
	// (8) c_ijk = 1 if t_k > tau_ij
	for e := 0; e < m; e++ {
		for k := 0; k < n; k++ {
			defineOrder("8-c", commStart(e), startOf(k), md.vC[[2]int{e, k}])
		}
	}
	// (9) c'_ijkp = 1 if tau_kp > tau_ij, (k,p) != (i,j)
	for e := 0; e < m; e++ {
		for f := 0; f < m; f++ {
			if e != f {
				defineOrder("9-cp", commStart(e), commStart(f), md.vCp[[2]int{e, f}])
			}
		}
	}
	// (10) d_ijk = 1 if t_k > comm-end(i,j)
	for e := 0; e < m; e++ {
		for k := 0; k < n; k++ {
			defineOrder("10-d", commEnd(e), startOf(k), md.vD[[2]int{e, k}])
		}
	}
	// (11) d'_ijkp = 1 if tau_kp > comm-end(i,j)
	for e := 0; e < m; e++ {
		for f := 0; f < m; f++ {
			if e != f {
				defineOrder("11-dp", commEnd(e), commStart(f), md.vDp[[2]int{e, f}])
			}
		}
	}
	// (12a) p_j - p_i - eps_ij |P| <= 0; (12b) p_j - p_i - 1 + (1-eps_ij)|P| >= 0.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			epsv := md.vEps[[2]int{i, j}]
			md.constrain("12-eps",
				newExpr().add(md.vP[j], 1).add(md.vP[i], -1).add(epsv, -totalProcs), lp.LE, 0)
			md.constrain("12-eps",
				newExpr().add(md.vP[j], 1).add(md.vP[i], -1).add(epsv, -totalProcs), lp.GE, 1-totalProcs)
		}
	}
	// (13) processor range vs memory side: b_i = 0 -> p_i <= P1 (blue);
	// b_i = 1 -> p_i >= P1+1 (red). Plus explicit 1 <= p_i <= P.
	pBlue := float64(p.Pools[0].Procs)
	for i := 0; i < n; i++ {
		md.constrain("13-procmem",
			newExpr().add(md.vP[i], 1).add(md.vB[i], -totalProcs), lp.LE, pBlue)
		md.constrain("13-procmem",
			newExpr().add(md.vP[i], 1).add(md.vB[i], -(totalProcs+1)), lp.GE, pBlue-totalProcs)
		md.constrain("13-procmem", newExpr().add(md.vP[i], 1), lp.GE, 1)
		md.constrain("13-procmem", newExpr().add(md.vP[i], 1), lp.LE, totalProcs)
	}
	// (14) m_ij + m_ji >= 1; (15) sigma_ij + sigma_ji <= 1 (i<j; diagonals substituted).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			md.constrain("14-m-pair",
				newExpr().add(md.vM[[2]int{i, j}], 1).add(md.vM[[2]int{j, i}], 1), lp.GE, 1)
			md.constrain("15-sigma-pair",
				newExpr().add(md.vSigma[[2]int{i, j}], 1).add(md.vSigma[[2]int{j, i}], 1), lp.LE, 1)
		}
	}
	// (16) m'_kij + c_ijk >= 1.
	for k := 0; k < n; k++ {
		for e := 0; e < m; e++ {
			md.constrain("16-mp-c",
				newExpr().add(md.vMp[[2]int{k, e}], 1).add(md.vC[[2]int{e, k}], 1), lp.GE, 1)
		}
	}
	// (17) c'_ef + c'_fe >= 1; (18) d'_ef + d'_fe <= 1 (e<f; diagonals substituted).
	for e := 0; e < m; e++ {
		for f := e + 1; f < m; f++ {
			md.constrain("17-cp-pair",
				newExpr().add(md.vCp[[2]int{e, f}], 1).add(md.vCp[[2]int{f, e}], 1), lp.GE, 1)
			md.constrain("18-dp-pair",
				newExpr().add(md.vDp[[2]int{e, f}], 1).add(md.vDp[[2]int{f, e}], 1), lp.LE, 1)
		}
	}
	// (19) m_ik >= sigma_ik.
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k {
				md.constrain("19-m-ge-sigma",
					newExpr().add(md.vM[[2]int{i, k}], 1).add(md.vSigma[[2]int{i, k}], -1), lp.GE, 0)
			}
		}
	}
	// (20) sigma_ik >= c_ijk; (21) c_ijk >= d_ijk; (22) d_ijk >= m_jk.
	for e := 0; e < m; e++ {
		edge := g.Edge(dag.EdgeID(e))
		i, j := int(edge.From), int(edge.To)
		for k := 0; k < n; k++ {
			cv := md.vC[[2]int{e, k}]
			dv := md.vD[[2]int{e, k}]
			sig := md.sigmaTerm(i, k)
			ex := newExpr().add(cv, -1)
			ex.addTerm(sig, 1)
			md.constrain("20-sigma-ge-c", ex, lp.GE, 0)
			md.constrain("21-c-ge-d", newExpr().add(cv, 1).add(dv, -1), lp.GE, 0)
			mjk := md.mTerm(j, k)
			ex = newExpr().add(dv, 1)
			ex.addTerm(mjk, -1)
			md.constrain("22-d-ge-m", ex, lp.GE, 0)
		}
	}
	// (23) delta_ij <=> b_i == b_j (i<j).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dv := md.vDelta[[2]int{i, j}]
			bi, bj := md.vB[i], md.vB[j]
			md.constrain("23-delta", newExpr().add(dv, 1).add(bi, -1).add(bj, 1), lp.LE, 1)
			md.constrain("23-delta", newExpr().add(dv, 1).add(bj, -1).add(bi, 1), lp.LE, 1)
			md.constrain("23-delta", newExpr().add(dv, 1).add(bi, -1).add(bj, -1), lp.GE, -1)
			md.constrain("23-delta", newExpr().add(dv, 1).add(bi, 1).add(bj, 1), lp.GE, 1)
		}
	}
	// (24) w_i = b_i W_red + (1-b_i) W_blue, as one equality.
	for i := 0; i < n; i++ {
		wBlue, wRed := md.In.Time(dag.TaskID(i), 0), md.In.Time(dag.TaskID(i), 1)
		md.constrain("24-work",
			newExpr().add(md.vW[i], 1).add(md.vB[i], wBlue-wRed), lp.EQ, wBlue)
	}
	// (25) sigma_ij + sigma_ji + eps_ij + eps_ji >= 1 (i != j).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			md.constrain("25-resource",
				newExpr().
					add(md.vSigma[[2]int{i, j}], 1).add(md.vSigma[[2]int{j, i}], 1).
					add(md.vEps[[2]int{i, j}], 1).add(md.vEps[[2]int{j, i}], 1),
				lp.GE, 1)
		}
	}

	// --- Memory constraints, linearised (Figure 7) ---
	mBlue := math.Min(float64(p.Capacity(0)), Mmax*1e6)
	mRed := math.Min(float64(p.Capacity(1)), Mmax*1e6)
	// (26a-d) alpha/beta definitions and (26) per-task memory bound.
	for i := 0; i < n; i++ {
		sum := newExpr()
		for e := 0; e < m; e++ {
			edge := g.Edge(dag.EdgeID(e))
			k, pp := int(edge.From), int(edge.To)
			al := md.vAlpha[[2]int{e, i}]
			be := md.vBeta[[2]int{e, i}]
			dik := md.deltaTerm(i, k)
			dip := md.deltaTerm(i, pp)
			mki := md.mTerm(k, i)
			dkpi := varTerm(md.vD[[2]int{e, i}])
			ckpi := varTerm(md.vC[[2]int{e, i}])
			spi := md.sigmaTerm(pp, i)

			// (26a) alpha >= delta_ik + m_ki - d_kpi - 1
			ex := newExpr().add(al, 1)
			ex.addTerm(dik, -1).addTerm(mki, -1).addTerm(dkpi, 1)
			md.constrain("26a", ex, lp.GE, -1)
			// (26b) 2 alpha <= delta_ik + m_ki - d_kpi
			ex = newExpr().add(al, 2)
			ex.addTerm(dik, -1).addTerm(mki, -1).addTerm(dkpi, 1)
			md.constrain("26b", ex, lp.LE, 0)
			// (26c) beta >= delta_ip + c_kpi - sigma_pi - 1
			ex = newExpr().add(be, 1)
			ex.addTerm(dip, -1).addTerm(ckpi, -1).addTerm(spi, 1)
			md.constrain("26c", ex, lp.GE, -1)
			// (26d) 2 beta <= delta_ip + c_kpi - sigma_pi
			ex = newExpr().add(be, 2)
			ex.addTerm(dip, -1).addTerm(ckpi, -1).addTerm(spi, 1)
			md.constrain("26d", ex, lp.LE, 0)

			sum.add(al, float64(edge.File)).add(be, float64(edge.File))
		}
		// (26) sum <= (1-b_i) Mblue + b_i Mred.
		sum.add(md.vB[i], mBlue-mRed)
		md.constrain("26-task-mem", sum, lp.LE, mBlue)
	}
	// (27a-d) alpha'/beta' definitions and (27) per-communication bound.
	for f := 0; f < m; f++ { // the communication being started: edge f = (i,j)
		fe := g.Edge(dag.EdgeID(f))
		j := int(fe.To)
		sum := newExpr()
		for e := 0; e < m; e++ { // the file possibly resident: edge e = (k,p)
			ee := g.Edge(dag.EdgeID(e))
			k, pp := int(ee.From), int(ee.To)
			al := md.vAlphaP[[2]int{e, f}]
			be := md.vBetaP[[2]int{e, f}]
			dkj := md.deltaTerm(k, j)
			dpj := md.deltaTerm(pp, j)
			mpk := varTerm(md.vMp[[2]int{k, f}])      // m'_k,(i,j)
			dpe := md.dpTerm(e, f)                    // d'_kp,ij
			cpe := md.cpTerm(e, f)                    // c'_kp,ij
			spj := varTerm(md.vSigmaP[[2]int{pp, f}]) // sigma'_p,(i,j)

			ex := newExpr().add(al, 1)
			ex.addTerm(dkj, -1).addTerm(mpk, -1).addTerm(dpe, 1)
			md.constrain("27a", ex, lp.GE, -1)
			ex = newExpr().add(al, 2)
			ex.addTerm(dkj, -1).addTerm(mpk, -1).addTerm(dpe, 1)
			md.constrain("27b", ex, lp.LE, 0)
			ex = newExpr().add(be, 1)
			ex.addTerm(dpj, -1).addTerm(cpe, -1).addTerm(spj, 1)
			md.constrain("27c", ex, lp.GE, -1)
			ex = newExpr().add(be, 2)
			ex.addTerm(dpj, -1).addTerm(cpe, -1).addTerm(spj, 1)
			md.constrain("27d", ex, lp.LE, 0)

			sum.add(al, float64(ee.File)).add(be, float64(ee.File))
		}
		// (27) sum <= (1-b_j) Mblue + b_j Mred + delta_ij Mmax-slack.
		// The delta term voids the constraint for intra-memory edges
		// (no transfer happens).
		bigSlack := mBlue + mRed + float64(g.TotalFiles())
		sum.add(md.vB[j], mBlue-mRed)
		dij := md.deltaTerm(int(fe.From), j)
		sum.addTerm(dij, -bigSlack)
		md.constrain("27-comm-mem", sum, lp.LE, mBlue)
	}
}
