package circuit

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// SimOptions controls a transient run.
type SimOptions struct {
	TStop float64 // simulation end time (s)
	DT    float64 // base timestep (s)

	// MaxNewton bounds Newton iterations per (sub)step. Default 40.
	MaxNewton int
	// VTol is the Newton convergence tolerance on |ΔV| (V). Default 1 µV.
	VTol float64
	// DVMax damps Newton by clamping per-iteration voltage updates (V).
	// Default 0.3 V.
	DVMax float64
	// MaxHalvings bounds local timestep subdivision on Newton failure.
	// Default 6.
	MaxHalvings int
	// Solver selects the linear-solver backend (default SolverAuto: sparse
	// with dense fallback).
	Solver SolverKind
}

func (o *SimOptions) setDefaults() {
	if o.MaxNewton == 0 {
		o.MaxNewton = 40
	}
	if o.VTol == 0 {
		o.VTol = 1e-6
	}
	if o.DVMax == 0 {
		o.DVMax = 0.3
	}
	if o.MaxHalvings == 0 {
		o.MaxHalvings = 6
	}
}

// Result holds sampled node waveforms of a transient run.
type Result struct {
	Times []float64
	// vByNode[node] is nil for ground; driven and free nodes are recorded.
	vByNode [][]float64
	names   []string
	// Solver reports which linear-solver backend produced the run.
	Solver SolverKind
}

// Waveform returns the sampled voltage trace of node n (aliasing internal
// storage; callers must not mutate it).
func (r *Result) Waveform(n Node) []float64 {
	w := r.vByNode[n]
	if w == nil {
		// ground
		w = make([]float64, len(r.Times))
		r.vByNode[n] = w
	}
	return w
}

// ErrNoConvergence reports that Newton failed even at the minimum timestep.
var ErrNoConvergence = errors.New("circuit: transient solver did not converge")

// Transient runs a Backward-Euler transient simulation and returns sampled
// waveforms at every multiple of opts.DT.
func (c *Circuit) Transient(opts SimOptions) (*Result, error) {
	return c.TransientCached(nil, opts)
}

// TransientCached is Transient with a solver cache: when cache is non-nil
// and already holds a solver compiled for this circuit's topology, the
// stamp program, sparsity pattern, symbolic factorisation and every
// workspace are reused — only element values and source waveforms are
// refreshed. This is the Monte-Carlo hot path, where each sample rebuilds
// an identical netlist with perturbed parameters. Results are bit-identical
// to an uncached run.
func (c *Circuit) TransientCached(cache *SolverCache, opts SimOptions) (*Result, error) {
	opts.setDefaults()
	if c.err != nil {
		return nil, c.err
	}
	if opts.TStop <= 0 || opts.DT <= 0 {
		return nil, errors.New("circuit: TStop and DT must be positive")
	}
	var (
		s   *solver
		err error
	)
	if cache != nil {
		s, err = cache.get(c, opts.Solver)
	} else {
		s, err = newSolver(c, opts.Solver)
	}
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(context.Background(), "transient")
	s.nIters, s.nNoConv, s.nHalvings = 0, 0, 0
	defer func() {
		mTransients.Inc()
		mNewtonIters.Add(s.nIters)
		mNewtonNoConv.Add(s.nNoConv)
		mStepHalvings.Add(s.nHalvings)
		span.SetAttr("solver", s.kind.String())
		span.SetAttr("newton_iters", s.nIters)
		span.End()
	}()
	nsteps := int(math.Ceil(opts.TStop/opts.DT)) + 1
	nrec := c.NumNodes() - 1
	res := &Result{
		Times:   make([]float64, 0, nsteps),
		vByNode: make([][]float64, c.NumNodes()),
		names:   c.nodeNames,
	}
	// One flat backing array for all recorded traces: a single allocation
	// sized exactly, subsliced per node with capped capacity.
	flat := make([]float64, nrec*nsteps)
	for n := 1; n <= nrec; n++ {
		off := (n - 1) * nsteps
		res.vByNode[n] = flat[off : off : off+nsteps]
	}

	if err := s.dcOperatingPoint(&opts); err != nil {
		return nil, fmt.Errorf("DC operating point: %w", err)
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for n := 1; n <= nrec; n++ {
			res.vByNode[n] = append(res.vByNode[n], s.voltageOf(Node(n), t))
		}
	}
	record(0)

	t := 0.0
	for t < opts.TStop-1e-21 {
		h := opts.DT
		if t+h > opts.TStop {
			h = opts.TStop - t
		}
		if err := s.advance(t, h, &opts, 0); err != nil {
			return nil, fmt.Errorf("t=%.4g: %w", t, err)
		}
		t += h
		record(t)
	}
	res.Solver = s.kind
	return res, nil
}

// voltageOf returns the voltage of any node given the accepted free-node
// solution s.x and time t (for driven nodes).
func (s *solver) voltageOf(n Node, t float64) float64 {
	if n == Ground {
		return 0
	}
	if w := s.byNode[n]; w != nil {
		return w.V(t)
	}
	return s.x[s.free[n]]
}

// assemble builds the residual f and Jacobian values at the voltages cached
// in vNow/vPrevN for the implicit step of size h. h <= 0 means a DC solve
// (capacitors open). The loop bodies are straight-line array arithmetic:
// slot and row indices were resolved at compile time, with non-free rows
// and columns redirected to trash entries.
func (s *solver) assemble(x []float64, h float64) {
	vals, f := s.vals, s.f
	for i := range vals {
		vals[i] = 0
	}
	for i := range f {
		f[i] = 0
	}
	vNow, vPrev := s.vNow, s.vPrevN

	for i := range s.res {
		st := &s.res[i]
		cur := st.g * (vNow[st.a] - vNow[st.b])
		f[st.fa] += cur
		vals[st.sAA] += st.g
		vals[st.sAB] -= st.g
		f[st.fb] -= cur
		vals[st.sBB] += st.g
		vals[st.sBA] -= st.g
	}

	// Gmin leakage on every free node.
	if s.gmin > 0 {
		for fi := 0; fi < s.nf; fi++ {
			f[fi] += s.gmin * x[fi]
			vals[s.diagSlots[fi]] += s.gmin
		}
	}

	if h > 0 {
		geq := 1 / h
		for i := range s.caps {
			st := &s.caps[i]
			// Backward Euler companion: i = C/h·((va−vb)−(vaPrev−vbPrev))
			g := st.c * geq
			cur := g * ((vNow[st.a] - vNow[st.b]) - (vPrev[st.a] - vPrev[st.b]))
			f[st.fa] += cur
			vals[st.sAA] += g
			vals[st.sAB] -= g
			f[st.fb] -= cur
			vals[st.sBB] += g
			vals[st.sBA] -= g
		}
	}

	for i := range s.mos {
		st := &s.mos[i]
		ids, dg, dd, ds := st.p.Ids(vNow[st.ng], vNow[st.nd], vNow[st.ns])
		f[st.fd] += ids
		vals[st.sDD] += dd
		vals[st.sDS] += ds
		vals[st.sDG] += dg
		f[st.fs] -= ids
		vals[st.sSS] -= ds
		vals[st.sSD] -= dd
		vals[st.sSG] -= dg
	}
}

// factorAndSolve factorises the assembled Jacobian and solves for the
// Newton update dx. On a sparse pivot failure under SolverAuto it rebinds
// the stamp program to the dense backend, re-assembles and retries.
func (s *solver) factorAndSolve(x []float64, h float64) error {
	if s.kind == SolverSparse {
		if err := s.sp.Factor(s.vals); err == nil {
			s.sp.Solve(s.f[:s.nf], s.dx)
			return nil
		} else if s.req == SolverSparse {
			return err
		}
		s.fallbackToDense()
		s.assemble(x, h)
	}
	if err := s.lu.Factor(s.jacDense); err != nil {
		return err
	}
	s.lu.Solve(s.f[:s.nf], s.dx)
	return nil
}

// newton iterates to convergence; x is used as the initial guess and
// overwritten with the solution. Driven-waveform voltages at tPrev/tNew are
// evaluated exactly once per call, into the per-node caches.
func (s *solver) newton(x, xPrev []float64, tPrev, tNew, h float64, opts *SimOptions) error {
	s.vNow[0] = 0
	s.vPrevN[0] = 0
	for i, nid := range s.drivenN {
		s.vNow[nid] = s.drivenW[i].V(tNew)
		s.vPrevN[nid] = s.drivenW[i].V(tPrev)
	}
	for fi, nid := range s.freeNodes {
		s.vPrevN[nid] = xPrev[fi]
	}
	for iter := 0; iter < opts.MaxNewton; iter++ {
		s.nIters++
		for fi, nid := range s.freeNodes {
			s.vNow[nid] = x[fi]
		}
		s.assemble(x, h)
		if err := s.factorAndSolve(x, h); err != nil {
			return fmt.Errorf("newton iteration %d: %w", iter, err)
		}
		var maxStep float64
		clamped := false
		for i := range x {
			d := s.dx[i]
			if d > opts.DVMax {
				d = opts.DVMax
				clamped = true
			} else if d < -opts.DVMax {
				d = -opts.DVMax
				clamped = true
			}
			x[i] -= d
			if a := math.Abs(d); a > maxStep {
				maxStep = a
			}
		}
		if maxStep < opts.VTol {
			return nil
		}
		// A circuit with no nonlinear devices is solved exactly by one
		// undamped Newton step: skip the confirmation iteration, which
		// would only compute a ~machine-epsilon correction.
		if len(s.mos) == 0 && !clamped {
			return nil
		}
	}
	s.nNoConv++
	return ErrNoConvergence
}

// advance integrates one step of size h from time t, recursively halving on
// Newton failure. The previous-solution snapshot lives in a depth-indexed
// scratch stack, so subdivision allocates nothing after the first visit to
// a given depth.
func (s *solver) advance(t, h float64, opts *SimOptions, depth int) error {
	for len(s.xStack) <= depth {
		s.xStack = append(s.xStack, make([]float64, s.nf))
	}
	xPrev := s.xStack[depth]
	copy(xPrev, s.x)
	copy(s.xNew, s.x)
	// Predictor: extrapolate the initial guess from the previous accepted
	// step. Newton converges to the same tolerance either way; a good guess
	// just saves an iteration of assemble/factor/solve per step.
	if s.predH > 0 && len(s.mos) > 0 {
		r := h / s.predH
		for i, xi := range s.x {
			s.xNew[i] = xi + r*(xi-s.xOld[i])
		}
	}
	err := s.newton(s.xNew, xPrev, t, t+h, h, opts)
	if err == nil {
		copy(s.xOld, xPrev)
		s.predH = h
		copy(s.x, s.xNew)
		return nil
	}
	if depth >= opts.MaxHalvings {
		return err
	}
	s.nHalvings++
	// Subdivide: two half-steps.
	if err := s.advance(t, h/2, opts, depth+1); err != nil {
		return err
	}
	return s.advance(t+h/2, h/2, opts, depth+1)
}

// dcOperatingPoint solves the t=0 steady state with capacitors open.
func (s *solver) dcOperatingPoint(opts *SimOptions) error {
	s.predH = 0 // a new run starts with no predictor history
	// Initial guess: mid-rail everywhere biases Newton away from the flat
	// sub-threshold region of every device at once.
	guess := 0.3
	for i := range s.x {
		s.x[i] = guess
	}
	dcOpts := *opts
	dcOpts.MaxNewton = 200
	if err := s.newton(s.x, s.x, 0, 0, 0, &dcOpts); err == nil {
		return nil
	}
	// Fall back to pseudo-transient ramp-up: march a few large implicit
	// steps which always converge thanks to the capacitive loading.
	for i := range s.x {
		s.x[i] = 0
	}
	h := opts.DT * 100
	for k := 0; k < 60; k++ {
		if err := s.advance(0, h, opts, 0); err != nil {
			return err
		}
	}
	return nil
}
