package sta

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/nsigma"
	"repro/internal/rctree"
	"repro/internal/stats"
	"repro/internal/timinglib"
	"repro/internal/waveform"
)

// This file is the data-oriented eval core: a one-time Compile step lowers
// the levelized netlist + parasitics into flat structure-of-arrays — dense
// net/gate ids, CSR fanin/fanout index slices, precomputed sink leaves,
// raw Elmore delays, wire-variability factors, pin caps and LUT handles —
// and per-corner timing state lives in contiguous float64 planes
// (FlatState). The wavefront sweep is a linear scan over these arrays with
// zero steady-state allocations; name-keyed Results are marshalled only at
// the boundary (endpoints, critical paths). The map-keyed engine this
// replaced survives only as a test oracle in legacy_test.go: compile_test.go
// requires every result, state and path to match it bit for bit across
// circuits, corner sets and worker counts.
//
// The Graph is immutable during evaluation. The incremental engine mutates
// it copy-on-write: CloneForEdit copies the derived arrays (cells, arcs,
// Elmore, X_w, trees, caps) and shares the structural ones (ids, CSR
// topology, names), so a published snapshot keeps a consistent frozen view
// while later edits refresh a private clone.

// Graph is the compiled form of one design under one coefficients file:
// the structural skeleton (dense ids, CSR adjacency) plus the derived
// per-pin evaluation operands the inner loop reads linearly.
type Graph struct {
	lib *timinglib.File
	opt Options

	levels []int
	li0    int // index of sigma level 0 in levels

	// Nets: dense ids. Primary inputs come first (in declaration order),
	// then gate outputs in gate-index order.
	netNames []string
	netIDs   map[string]int
	drvOf    []int32 // net -> driving gate, -1 for a primary input
	treeOf   []*rctree.Tree
	totalCap []float64 // raw TotalCap of the net's tree (0 when treeless)

	inputs  []int32 // PI net ids in netlist declaration order
	outputs []int32 // PO net ids in netlist declaration order

	// Gates.
	gateNames []string
	cellOf    []string
	outNetOf  []int32

	// Levelized order: order[levOff[l]:levOff[l+1]] is logic level l, each
	// group internally in topological order; posOf is the inverse (gate →
	// position in order).
	order  []int32
	levOff []int32
	posOf  []int32

	// Fanin pins, CSR by gate: pin entries in sorted pin-name order (the
	// deterministic visit order of the eval loop). A pin entry id is the
	// stable handle the winner bookkeeping stores.
	pinOff     []int32
	pinName    []string
	pinNet     []int32
	pinSinkIdx []int32 // index within the input net's fanout list
	pinLeaf    []int32 // sink leaf in the input net's tree
	pinElmore  []float64
	pinXW      []float64
	pinCap     []float64
	pinArc     [][2]*nsigma.ArcModel // by EdgeIdx(inEdge)

	// Fanout, CSR by net: sink gate ids, -1 marking a primary-output pad.
	fanOff  []int32
	fanGate []int32

	// Primary-output transport entries, CSR by net (empty for non-PO nets):
	// the precomputed atLeaf operands of each PO pad, in fanout order.
	poOff     []int32
	poSinkIdx []int32
	poLeaf    []int32
	poElmore  []float64
	poXW      []float64

	// padArc[EdgeIdx(e)] is the Options.InputDriver arc evaluated by the
	// PI root-slew model for edge e (nil when the library lacks it).
	padArc [2]*nsigma.ArcModel
}

// NumNets returns the number of distinct nets.
func (g *Graph) NumNets() int { return len(g.netNames) }

// NumGates returns the number of gates.
func (g *Graph) NumGates() int { return len(g.cellOf) }

// Levels returns the propagated sigma levels.
func (g *Graph) Levels() []int { return g.levels }

// NetID resolves a net name to its dense id.
func (g *Graph) NetID(name string) (int, bool) {
	id, ok := g.netIDs[name]
	return id, ok
}

// NetName returns the name of a net id.
func (g *Graph) NetName(id int) string { return g.netNames[id] }

// Driver returns the gate driving a net, or -1 for a primary input.
func (g *Graph) Driver(net int) int { return int(g.drvOf[net]) }

// OutNet returns the output net id of a gate.
func (g *Graph) OutNet(gi int) int { return int(g.outNetOf[gi]) }

// FanoutGates returns the sink gate ids of a net (-1 entries are
// primary-output pads). The slice aliases the graph; do not mutate.
func (g *Graph) FanoutGates(net int) []int32 {
	return g.fanGate[g.fanOff[net]:g.fanOff[net+1]]
}

// LevelOf returns the logic level of a gate (position of its group in the
// levelized order).
func (g *Graph) LevelOf(gi int) int {
	// Levels are only needed by schedulers that already track them; derive
	// lazily from the order via binary search over levOff.
	pos := g.posOf[gi]
	return sort.Search(len(g.levOff)-1, func(l int) bool { return g.levOff[l+1] > pos })
}

// Compiled returns the timer's compiled graph, building it on first use
// and memoizing it for the life of this (netlist, trees, options)
// generation — a WithOptions copy compiles afresh. The returned graph is
// immutable; concurrent analyses share it. Callers that will mutate the
// graph (the incremental engine's copy-on-write edits) must Compile their
// own.
func (t *Timer) Compiled() (*Graph, error) {
	t.compiled.mu.Lock()
	defer t.compiled.mu.Unlock()
	if t.compiled.g == nil {
		g, err := t.Compile()
		if err != nil {
			return nil, err
		}
		t.compiled.g = g
	}
	return t.compiled.g, nil
}

// Compile lowers the timer's design into the flat evaluation form. The
// structural work of the eval loop — sink-leaf resolution, raw Elmore
// delays, wire variability, arc lookups — runs once here; anything that can fail (missing trees, leaves, arcs, wire
// coverage) fails at compile time instead of mid-propagation.
func (t *Timer) Compile() (*Graph, error) {
	order, err := t.nl.Levelize()
	if err != nil {
		return nil, err
	}
	groups := t.levelGroups(order)

	g := &Graph{
		lib:    t.lib,
		opt:    t.opt,
		levels: t.opt.Levels,
		li0:    -1,
	}
	for li, n := range g.levels {
		if n == 0 {
			g.li0 = li
		}
	}

	// Net ids: PIs first, then gate outputs in gate order.
	g.netIDs = make(map[string]int, t.nl.NumNets())
	addNet := func(name string, drv int32) int {
		if id, ok := g.netIDs[name]; ok {
			return id
		}
		id := len(g.netNames)
		g.netIDs[name] = id
		g.netNames = append(g.netNames, name)
		g.drvOf = append(g.drvOf, drv)
		return id
	}
	for _, in := range t.nl.Inputs {
		g.inputs = append(g.inputs, int32(addNet(in, -1)))
	}
	for gi := range t.nl.Gates {
		addNet(t.nl.Gates[gi].Output(), int32(gi))
	}
	for _, po := range t.nl.Outputs {
		id, ok := g.netIDs[po]
		if !ok {
			return nil, fmt.Errorf("sta: compile: output net %s is not driven", po)
		}
		g.outputs = append(g.outputs, int32(id))
	}
	nn := len(g.netNames)
	g.treeOf = make([]*rctree.Tree, nn)
	g.totalCap = make([]float64, nn)
	for id, name := range g.netNames {
		if tree := t.trees[name]; tree != nil {
			g.treeOf[id] = tree
			g.totalCap[id] = tree.TotalCap()
		}
	}

	// Gates and the levelized order.
	ng := len(t.nl.Gates)
	g.gateNames = make([]string, ng)
	g.cellOf = make([]string, ng)
	g.outNetOf = make([]int32, ng)
	for gi := range t.nl.Gates {
		gate := &t.nl.Gates[gi]
		g.gateNames[gi] = gate.Name
		g.cellOf[gi] = gate.Cell
		g.outNetOf[gi] = int32(g.netIDs[gate.Output()])
		if g.treeOf[g.outNetOf[gi]] == nil {
			return nil, fmt.Errorf("sta: gate %s output net %s has no tree", gate.Name, gate.Output())
		}
	}
	g.order = make([]int32, 0, ng)
	g.levOff = make([]int32, 0, len(groups)+1)
	g.levOff = append(g.levOff, 0)
	for _, grp := range groups {
		for _, gi := range grp {
			g.order = append(g.order, int32(gi))
		}
		g.levOff = append(g.levOff, int32(len(g.order)))
	}
	g.posOf = make([]int32, ng)
	for p, gi := range g.order {
		g.posOf[gi] = int32(p)
	}

	// Fanin pin entries (sorted pin order, matching t.pinsOf) and the
	// fanout/PO CSR, resolved through sinkLeaf, poLeaf and xwFor.
	g.pinOff = make([]int32, ng+1)
	for gi := 0; gi < ng; gi++ {
		g.pinOff[gi+1] = g.pinOff[gi] + int32(len(t.pinsOf[gi]))
	}
	np := int(g.pinOff[ng])
	g.pinName = make([]string, np)
	g.pinNet = make([]int32, np)
	g.pinSinkIdx = make([]int32, np)
	g.pinLeaf = make([]int32, np)
	g.pinElmore = make([]float64, np)
	g.pinXW = make([]float64, np)
	g.pinCap = make([]float64, np)
	g.pinArc = make([][2]*nsigma.ArcModel, np)
	for gi := 0; gi < ng; gi++ {
		gate := &t.nl.Gates[gi]
		base := int(g.pinOff[gi])
		for pi, pin := range t.pinsOf[gi] {
			p := base + pi
			inNet := gate.Pins[pin]
			id, ok := g.netIDs[inNet]
			if !ok {
				return nil, fmt.Errorf("sta: compile: gate %s pin %s reads undriven net %s", gate.Name, pin, inNet)
			}
			g.pinName[p] = pin
			g.pinNet[p] = int32(id)
			sinkIdx, leaf, err := t.sinkLeaf(inNet, gi, pin)
			if err != nil {
				return nil, err
			}
			g.pinSinkIdx[p] = int32(sinkIdx)
			g.pinLeaf[p] = int32(leaf)
			g.pinElmore[p] = g.treeOf[id].Elmore(leaf)
			xw, err := t.xwFor(inNet, gi)
			if err != nil {
				return nil, err
			}
			g.pinXW[p] = xw
			pc, err := t.lib.PinCap(gate.Cell, pin)
			if err != nil {
				return nil, err
			}
			g.pinCap[p] = pc
			for _, e := range []waveform.Edge{waveform.Falling, waveform.Rising} {
				arc, err := t.lib.Arc(gate.Cell, pin, e)
				if err != nil {
					return nil, err
				}
				g.pinArc[p][EdgeIdx(e)] = arc
			}
		}
	}

	g.fanOff = make([]int32, nn+1)
	g.poOff = make([]int32, nn+1)
	for id, name := range g.netNames {
		sinks := t.fan[name]
		g.fanOff[id+1] = int32(len(sinks))
		for _, s := range sinks {
			if s.Gate < 0 {
				g.poOff[id+1]++
			}
		}
	}
	for id := 0; id < nn; id++ {
		g.fanOff[id+1] += g.fanOff[id]
		g.poOff[id+1] += g.poOff[id]
	}
	g.fanGate = make([]int32, g.fanOff[nn])
	nPO := int(g.poOff[nn])
	g.poSinkIdx = make([]int32, 0, nPO)
	g.poLeaf = make([]int32, 0, nPO)
	g.poElmore = make([]float64, 0, nPO)
	g.poXW = make([]float64, 0, nPO)
	for id, name := range g.netNames {
		sinks := t.fan[name]
		for si, s := range sinks {
			g.fanGate[int(g.fanOff[id])+si] = int32(s.Gate)
			if s.Gate >= 0 {
				continue
			}
			leaf, err := t.poLeaf(name, si)
			if err != nil {
				return nil, err
			}
			xw, err := t.xwFor(name, -1)
			if err != nil {
				return nil, err
			}
			g.poSinkIdx = append(g.poSinkIdx, int32(si))
			g.poLeaf = append(g.poLeaf, int32(leaf))
			g.poElmore = append(g.poElmore, g.treeOf[id].Elmore(leaf))
			g.poXW = append(g.poXW, xw)
		}
	}

	// Pad-driver arcs for the PI root-slew model (best-effort: a library
	// without them falls back to the raw input slew, see PISlews).
	if info, err := t.lib.Cell(t.opt.InputDriver); err == nil && len(info.Inputs) > 0 {
		for _, e := range []waveform.Edge{waveform.Falling, waveform.Rising} {
			if arc, err := t.lib.Arc(t.opt.InputDriver, info.Inputs[0], e.Opposite()); err == nil {
				g.padArc[EdgeIdx(e)] = arc
			}
		}
	}
	return g, nil
}

// pinEntry resolves the pin entry id of (gate, pin name); -1 when absent.
func (g *Graph) pinEntry(gi int, pin string) int {
	for p := int(g.pinOff[gi]); p < int(g.pinOff[gi+1]); p++ {
		if g.pinName[p] == pin {
			return p
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Flat per-corner state

// FlatState is the propagated timing state of one corner stored as
// contiguous planes indexed by dense net id and edge: arrival and winner
// quantiles as [net][edge][level] float64 planes, scalars as [net][edge]
// slices.
type FlatState struct {
	nn, nlev int
	arr      []float64 // [(net*2+edge)*nlev + levelIdx]
	quant    []float64
	slew     []float64 // [net*2+edge]
	inSlew   []float64
	load     []float64
	moms     []stats.Moments
	winPin   []int32 // winning pin entry id, -1 for PIs
	valid    []bool
}

// NewState allocates a zeroed state sized for the graph. All nets start
// invalid with no winner.
func (g *Graph) NewState() *FlatState {
	nn, nlev := len(g.netNames), len(g.levels)
	st := &FlatState{
		nn: nn, nlev: nlev,
		arr:    make([]float64, nn*2*nlev),
		quant:  make([]float64, nn*2*nlev),
		slew:   make([]float64, nn*2),
		inSlew: make([]float64, nn*2),
		load:   make([]float64, nn*2),
		moms:   make([]stats.Moments, nn*2),
		winPin: make([]int32, nn*2),
		valid:  make([]bool, nn*2),
	}
	for i := range st.winPin {
		st.winPin[i] = -1
	}
	return st
}

// Clone returns an independent copy — a handful of memcpys, the cheap
// snapshot primitive the incremental engine publishes.
func (s *FlatState) Clone() *FlatState {
	cp := &FlatState{nn: s.nn, nlev: s.nlev,
		arr:    append([]float64(nil), s.arr...),
		quant:  append([]float64(nil), s.quant...),
		slew:   append([]float64(nil), s.slew...),
		inSlew: append([]float64(nil), s.inSlew...),
		load:   append([]float64(nil), s.load...),
		moms:   append([]stats.Moments(nil), s.moms...),
		winPin: append([]int32(nil), s.winPin...),
		valid:  append([]bool(nil), s.valid...),
	}
	return cp
}

// EdgeIdx maps an edge to its state slot (falling = 0, rising = 1).
func EdgeIdx(e waveform.Edge) int {
	if e == waveform.Rising {
		return 1
	}
	return 0
}

// Valid reports whether the (net, edge) slot holds propagated state.
func (s *FlatState) Valid(net int, e waveform.Edge) bool { return s.valid[net*2+EdgeIdx(e)] }

// Arr returns the arrival plane row of (net, edge): one value per sigma
// level, aliasing the state.
func (s *FlatState) Arr(net int, e waveform.Edge) []float64 {
	off := (net*2 + EdgeIdx(e)) * s.nlev
	return s.arr[off : off+s.nlev]
}

// Slew returns the root slew of (net, edge).
func (s *FlatState) Slew(net int, e waveform.Edge) float64 { return s.slew[net*2+EdgeIdx(e)] }

// effInputSlew mirrors Timer.effInputSlew for a compiled graph under an
// explicit corner.
func (g *Graph) effInputSlew(net int, c Corner) float64 {
	if s, ok := g.opt.InputSlews[g.netNames[net]]; ok {
		return s
	}
	if c.InputSlew > 0 {
		return c.InputSlew
	}
	return g.opt.InputSlew
}

// PISlews computes the primary-input root slews of a net for both edges
// under a corner — the compiled InputState. Index by EdgeIdx.
func (g *Graph) PISlews(net int, c Corner) [2]float64 {
	var out [2]float64
	for ei := 0; ei < 2; ei++ {
		inSlew := g.effInputSlew(net, c)
		if g.treeOf[net] == nil || g.padArc[ei] == nil {
			out[ei] = inSlew
			continue
		}
		out[ei] = g.padArc[ei].OutSlew(inSlew, c.scaled(g.totalCap[net]))
	}
	return out
}

// InitPI seeds every primary input of the state: zero arrival at every
// sigma level and the pad-driver root slew, both edges.
func (g *Graph) InitPI(st *FlatState, c Corner) {
	for _, net := range g.inputs {
		slews := g.PISlews(int(net), c)
		g.CommitPI(st, int(net), slews)
	}
}

// CommitPI installs freshly computed PI root slews into the state.
func (g *Graph) CommitPI(st *FlatState, net int, slews [2]float64) {
	for ei := 0; ei < 2; ei++ {
		si := net*2 + ei
		st.valid[si] = true
		st.winPin[si] = -1
		st.slew[si] = slews[ei]
		// Arrivals and quantiles stay zero; a PI slot only ever carries a
		// root slew.
		off := si * st.nlev
		for li := 0; li < st.nlev; li++ {
			st.arr[off+li] = 0
			st.quant[off+li] = 0
		}
	}
}

// PIMatches reports whether the cached PI state of net equals the given
// root slews under the incremental engine's early-termination rule: bitwise
// at eps 0, within eps otherwise.
func (s *FlatState) PIMatches(net int, slews [2]float64, eps float64) bool {
	for ei := 0; ei < 2; ei++ {
		si := net*2 + ei
		if !s.valid[si] || s.winPin[si] != -1 {
			return false
		}
		if eps == 0 {
			if s.slew[si] != slews[ei] {
				return false
			}
		} else if math.Abs(s.slew[si]-slews[ei]) > eps {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Compiled gate evaluation

// EvalScratch holds the reusable per-worker buffers of the compiled eval
// loop. One scratch serves any number of sequential EvalGateInto calls with
// zero steady-state allocations.
type EvalScratch struct {
	cand, qs       []float64 // per level
	bestArr, bestQ []float64 // per corner × level
	bestArc        []*nsigma.ArcModel
}

// NewScratch sizes a scratch for nc corners.
func (g *Graph) NewScratch(nc int) *EvalScratch {
	nlev := len(g.levels)
	return &EvalScratch{
		cand:    make([]float64, nlev),
		qs:      make([]float64, nlev),
		bestArr: make([]float64, nc*nlev),
		bestQ:   make([]float64, nc*nlev),
		bestArc: make([]*nsigma.ArcModel, nc),
	}
}

// GateOut buffers one gate's evaluated output state for all corners and
// both edges, so callers can compare before committing (the incremental
// cut test) or commit directly (the batch sweep). Slots are indexed
// edge-major: oi = EdgeIdx(edge)*nc + ci.
type GateOut struct {
	nc, nlev int
	arr      []float64 // [oi*nlev + levelIdx]
	quant    []float64
	slew     []float64
	inSlew   []float64
	load     []float64
	moms     []stats.Moments
	winPin   []int32
	valid    []bool
	// Arcs counts the structurally timed cell arcs of the evaluation
	// (corner-independent): Result.GatesTimed sums them.
	Arcs int
}

// NewGateOut sizes an output buffer for nc corners.
func (g *Graph) NewGateOut(nc int) *GateOut {
	nlev := len(g.levels)
	return &GateOut{
		nc: nc, nlev: nlev,
		arr:    make([]float64, 2*nc*nlev),
		quant:  make([]float64, 2*nc*nlev),
		slew:   make([]float64, 2*nc),
		inSlew: make([]float64, 2*nc),
		load:   make([]float64, 2*nc),
		moms:   make([]stats.Moments, 2*nc),
		winPin: make([]int32, 2*nc),
		valid:  make([]bool, 2*nc),
	}
}

const ln9 = 2.1972245773362196

// EvalGateInto evaluates one gate under every corner into out: for each
// output edge it transports every input-pin arrival across the input wire
// (wire quantile model + PERI slew degradation), adds the cell arc's
// T_c(nσ) from the coefficients file, and keeps the per-level max with the
// level-0 winner carrying the backtracking metadata. Input pins are visited
// in sorted order, so ties resolve deterministically. The structural
// operands are shared across corners; only the corner-marginal arithmetic
// runs per corner. It performs no allocations.
func (g *Graph) EvalGateInto(gi int, states []*FlatState, corners []Corner, sc *EvalScratch, out *GateOut) {
	nc := len(corners)
	nlev := len(g.levels)
	outNet := int(g.outNetOf[gi])
	totalCap := g.totalCap[outNet]
	pinLo, pinHi := int(g.pinOff[gi]), int(g.pinOff[gi+1])
	out.Arcs = 0
	for ei := 0; ei < 2; ei++ { // outEdge: falling, then rising
		ie := 1 - ei // input edge = opposite
		for ci := 0; ci < nc; ci++ {
			out.valid[ei*nc+ci] = false
		}
		for p := pinLo; p < pinHi; p++ {
			inNet := int(g.pinNet[p])
			inSlot := inNet*2 + ie
			anyValid := false
			for ci := range states {
				if states[ci].valid[inSlot] {
					anyValid = true
					break
				}
			}
			if !anyValid {
				continue
			}
			rawElmore := g.pinElmore[p]
			xw := g.pinXW[p]
			arc := g.pinArc[p][ie]
			out.Arcs++
			for ci := range corners {
				st := states[ci]
				if !st.valid[inSlot] {
					continue
				}
				c := corners[ci]
				elmore := c.scaled(rawElmore)
				load := c.scaled(totalCap)
				inSlew := st.slew[inSlot]
				pinSlew := math.Sqrt(inSlew*inSlew + (ln9*elmore)*(ln9*elmore))
				moms := arc.MomentsAt(pinSlew, load)
				base := ci * nlev
				arrIn := st.arr[inSlot*nlev : inSlot*nlev+nlev]
				for li, n := range g.levels {
					q := arc.Quant.Quantile(moms, n)
					sc.qs[li] = q
					// Fixed association, (arrival + wire transport) + cell
					// quantile, so every driver gets the same bits.
					sc.cand[li] = (arrIn[li] + (1+float64(n)*xw)*elmore) + q
				}
				oi := ei*nc + ci
				var cand0, best0 float64
				if g.li0 >= 0 {
					cand0 = sc.cand[g.li0]
					best0 = sc.bestArr[base+g.li0]
				}
				if !out.valid[oi] || cand0 > best0 {
					copy(sc.bestArr[base:base+nlev], sc.cand)
					copy(sc.bestQ[base:base+nlev], sc.qs)
					sc.bestArc[ci] = arc
					out.valid[oi] = true
					out.moms[oi] = moms
					out.winPin[oi] = int32(p)
					out.inSlew[oi] = pinSlew
					out.load[oi] = load
				} else {
					for li := 0; li < nlev; li++ {
						if sc.cand[li] > sc.bestArr[base+li] {
							sc.bestArr[base+li] = sc.cand[li]
						}
					}
				}
			}
		}
		for ci := range corners {
			oi := ei*nc + ci
			if !out.valid[oi] {
				continue
			}
			base := ci * nlev
			copy(out.arr[oi*nlev:oi*nlev+nlev], sc.bestArr[base:base+nlev])
			copy(out.quant[oi*nlev:oi*nlev+nlev], sc.bestQ[base:base+nlev])
			out.slew[oi] = sc.bestArc[ci].OutSlew(out.inSlew[oi], out.load[oi])
		}
	}
}

// CommitGate installs a buffered evaluation into the per-corner states.
// Distinct gates write distinct output-net slots, so same-level commits may
// run concurrently from different workers.
func (g *Graph) CommitGate(gi int, states []*FlatState, out *GateOut) {
	outNet := int(g.outNetOf[gi])
	nc := out.nc
	nlev := out.nlev
	for ci, st := range states {
		for ei := 0; ei < 2; ei++ {
			oi := ei*nc + ci
			si := outNet*2 + ei
			st.valid[si] = out.valid[oi]
			if !out.valid[oi] {
				st.winPin[si] = -1
				continue
			}
			st.winPin[si] = out.winPin[oi]
			st.slew[si] = out.slew[oi]
			st.inSlew[si] = out.inSlew[oi]
			st.load[si] = out.load[oi]
			st.moms[si] = out.moms[oi]
			copy(st.arr[si*nlev:si*nlev+nlev], out.arr[oi*nlev:oi*nlev+nlev])
			copy(st.quant[si*nlev:si*nlev+nlev], out.quant[oi*nlev:oi*nlev+nlev])
		}
	}
}

// OutMatches reports whether a buffered evaluation equals the cached state
// of the gate's output net across every corner, under the incremental
// engine's early-termination rule: the winning-arc topology must match
// exactly; at eps 0 every numeric field must be bit-equal; at positive eps
// the arrivals and root slew may drift by up to eps.
func (g *Graph) OutMatches(gi int, states []*FlatState, out *GateOut, eps float64) bool {
	outNet := int(g.outNetOf[gi])
	nc := out.nc
	nlev := out.nlev
	for ci, st := range states {
		for ei := 0; ei < 2; ei++ {
			oi := ei*nc + ci
			si := outNet*2 + ei
			if st.valid[si] != out.valid[oi] {
				return false
			}
			if !out.valid[oi] {
				continue
			}
			if st.winPin[si] != out.winPin[oi] {
				return false
			}
			if eps == 0 {
				if st.slew[si] != out.slew[oi] || st.inSlew[si] != out.inSlew[oi] ||
					st.load[si] != out.load[oi] || st.moms[si] != out.moms[oi] {
					return false
				}
				for li := 0; li < nlev; li++ {
					if st.arr[si*nlev+li] != out.arr[oi*nlev+li] ||
						st.quant[si*nlev+li] != out.quant[oi*nlev+li] {
						return false
					}
				}
				continue
			}
			if math.Abs(st.slew[si]-out.slew[oi]) > eps {
				return false
			}
			for li := 0; li < nlev; li++ {
				if math.Abs(st.arr[si*nlev+li]-out.arr[oi*nlev+li]) > eps {
					return false
				}
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Boundary marshalling: endpoints, results, paths, state maps

// EndpointEntry is one timed endpoint of a primary-output net: the
// Result.EndpointArrivals key ("net/edge"), the edge, and the arrival
// quantiles transported to the PO leaf.
type EndpointEntry struct {
	Key  string
	Edge waveform.Edge
	Arr  map[int]float64
}

// EndpointsForNet transports a primary-output net's root state to each of
// its PO leaves under one corner, in a deterministic order (sink index,
// then falling before rising).
func (g *Graph) EndpointsForNet(po int, st *FlatState, c Corner) []EndpointEntry {
	var entries []EndpointEntry
	for k := int(g.poOff[po]); k < int(g.poOff[po+1]); k++ {
		elmore := c.scaled(g.poElmore[k])
		xw := g.poXW[k]
		for ei := 0; ei < 2; ei++ {
			si := po*2 + ei
			if !st.valid[si] {
				continue
			}
			arr := make(map[int]float64, st.nlev)
			for li, n := range g.levels {
				arr[n] = st.arr[si*st.nlev+li] + (1+float64(n)*xw)*elmore
			}
			e := waveform.Edge(ei == 1)
			entries = append(entries, EndpointEntry{
				Key:  fmt.Sprintf("%s/%s", g.netNames[po], e),
				Edge: e,
				Arr:  arr,
			})
		}
	}
	return entries
}

// ResultFromFlat assembles a Result from flat state and per-net endpoint
// entries: it selects the critical endpoint (primary outputs in
// declaration order, strict level-0 max) and backtracks the critical path
// through the compiled arrays. GatesTimed is left
// zero for the caller.
func (g *Graph) ResultFromFlat(st *FlatState, c Corner, ep map[string][]EndpointEntry) (*Result, error) {
	res := &Result{EndpointArrivals: make(map[string]map[int]float64)}
	bestMean := math.Inf(-1)
	bestNet := -1
	var bestEdge waveform.Edge
	var bestArr map[int]float64
	for _, po := range g.outputs {
		name := g.netNames[po]
		for _, e := range ep[name] {
			res.Endpoints++
			res.EndpointArrivals[e.Key] = e.Arr
			if e.Arr[0] > bestMean {
				bestMean = e.Arr[0]
				bestNet, bestEdge, bestArr = int(po), e.Edge, e.Arr
			}
		}
	}
	if bestNet < 0 {
		return nil, fmt.Errorf("sta: no timed endpoints")
	}
	res.ArrivalQ = bestArr
	path, err := g.backtrackFlat(st, c, bestNet, bestEdge)
	if err != nil {
		return nil, err
	}
	res.Critical = path
	return res, nil
}

// backtrackFlat reconstructs the worst path ending at a PO net/edge from
// flat state.
func (g *Graph) backtrackFlat(st *FlatState, c Corner, endNet int, endEdge waveform.Edge) (*Path, error) {
	type link struct {
		net  int
		edge waveform.Edge
	}
	var rev []link
	cur := link{net: endNet, edge: endEdge}
	for {
		rev = append(rev, cur)
		if g.drvOf[cur.net] < 0 {
			break // reached a primary input
		}
		si := cur.net*2 + EdgeIdx(cur.edge)
		if !st.valid[si] {
			return nil, fmt.Errorf("sta: backtrack through invalid state at %s", g.netNames[cur.net])
		}
		wp := st.winPin[si]
		cur = link{net: int(g.pinNet[wp]), edge: cur.edge.Opposite()}
	}
	p := &Path{Endpoint: g.netNames[endNet]}
	nlev := st.nlev
	for i := len(rev) - 1; i >= 0; i-- {
		l := rev[i]
		si := l.net*2 + EdgeIdx(l.edge)
		stg := Stage{GateIdx: -1, Net: g.netNames[l.net], Tree: g.treeOf[l.net], SinkLeaf: -1}
		if gi := g.drvOf[l.net]; gi >= 0 {
			wp := st.winPin[si]
			stg.GateIdx = int(gi)
			stg.Cell = g.cellOf[gi]
			stg.InPin = g.pinName[wp]
			stg.InEdge = l.edge.Opposite()
			stg.InSlew = st.inSlew[si]
			stg.Load = st.load[si]
			stg.CellMoments = st.moms[si]
			quant := make(map[int]float64, nlev)
			for li, n := range g.levels {
				quant[n] = st.quant[si*nlev+li]
			}
			stg.CellQ = quant
			stg.OutSlew = st.slew[si]
		} else {
			p.Launch = l.edge
			stg.InEdge = l.edge
			stg.InSlew = g.effInputSlew(l.net, c)
			stg.OutSlew = st.slew[si]
		}
		var rawElmore float64
		if i > 0 {
			next := rev[i-1]
			nsi := next.net*2 + EdgeIdx(next.edge)
			nwp := st.winPin[nsi]
			ngi := g.drvOf[next.net]
			stg.SinkIdx = int(g.pinSinkIdx[nwp])
			stg.SinkLeaf = int(g.pinLeaf[nwp])
			stg.SinkCell = g.cellOf[ngi]
			stg.SinkPin = g.pinName[nwp]
			stg.SinkPinCap = g.pinCap[nwp]
			rawElmore = g.pinElmore[nwp]
			stg.XW = g.pinXW[nwp]
		} else {
			if g.poOff[l.net] == g.poOff[l.net+1] {
				return nil, fmt.Errorf("sta: endpoint %s has no PO leaf", g.netNames[l.net])
			}
			k := int(g.poOff[l.net])
			stg.SinkIdx = int(g.poSinkIdx[k])
			stg.SinkLeaf = int(g.poLeaf[k])
			rawElmore = g.poElmore[k]
			stg.XW = g.poXW[k]
		}
		stg.Elmore = c.scaled(rawElmore)
		stg.LeafSlew = math.Sqrt(stg.OutSlew*stg.OutSlew + (ln9*stg.Elmore)*(ln9*stg.Elmore))
		p.Stages = append(p.Stages, stg)
	}
	return p, nil
}

// TopPathsFlat ranks a result's endpoints (mean arrival descending, then
// endpoint key, for deterministic tie-breaking) and backtracks the worst
// path of each of the k slowest. Timer.AnalyzeTopPaths and incremental
// snapshots both serve top-k through it.
func (g *Graph) TopPathsFlat(st *FlatState, c Corner, res *Result, k int) ([]*Path, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sta: k must be positive")
	}
	type endpoint struct {
		key  string
		arr  float64
		net  string
		edge waveform.Edge
	}
	eps := make([]endpoint, 0, len(res.EndpointArrivals))
	for key, arr := range res.EndpointArrivals {
		i := strings.LastIndexByte(key, '/')
		net := key[:i]
		edge := waveform.Falling
		if key[i+1:] == waveform.Rising.String() {
			edge = waveform.Rising
		}
		eps = append(eps, endpoint{key: key, arr: arr[0], net: net, edge: edge})
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].arr != eps[j].arr {
			return eps[i].arr > eps[j].arr
		}
		return eps[i].key < eps[j].key
	})
	if k > len(eps) {
		k = len(eps)
	}
	paths := make([]*Path, 0, k)
	for _, ep := range eps[:k] {
		id, ok := g.netIDs[ep.net]
		if !ok {
			return nil, fmt.Errorf("sta: unknown endpoint net %s", ep.net)
		}
		p, err := g.backtrackFlat(st, c, id, ep.edge)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// ---------------------------------------------------------------------------
// Copy-on-write refresh (the incremental engine's edit hooks)

// CloneForEdit returns a graph sharing the structural skeleton (ids, CSR
// topology, names, order) with private copies of every derived array an
// edit can touch — cells, arcs, pin caps, X_w, Elmore delays, leaves, trees
// and total caps. Published snapshots referencing the receiver keep a
// frozen consistent view.
func (g *Graph) CloneForEdit() *Graph {
	cp := *g
	cp.cellOf = append([]string(nil), g.cellOf...)
	cp.treeOf = append([]*rctree.Tree(nil), g.treeOf...)
	cp.totalCap = append([]float64(nil), g.totalCap...)
	cp.pinLeaf = append([]int32(nil), g.pinLeaf...)
	cp.pinElmore = append([]float64(nil), g.pinElmore...)
	cp.pinXW = append([]float64(nil), g.pinXW...)
	cp.pinCap = append([]float64(nil), g.pinCap...)
	cp.pinArc = append([][2]*nsigma.ArcModel(nil), g.pinArc...)
	cp.poLeaf = append([]int32(nil), g.poLeaf...)
	cp.poElmore = append([]float64(nil), g.poElmore...)
	cp.poXW = append([]float64(nil), g.poXW...)
	return &cp
}

// SetOptions installs refreshed analysis options (input-slew overrides).
// The sigma levels must be unchanged — they size every state plane.
func (g *Graph) SetOptions(opt Options) error {
	if len(opt.Levels) != len(g.levels) {
		return fmt.Errorf("sta: graph options: levels changed")
	}
	for i, n := range opt.Levels {
		if g.levels[i] != n {
			return fmt.Errorf("sta: graph options: levels changed")
		}
	}
	g.opt = opt
	return nil
}

// SetGateCell refreshes every derived operand that depends on a gate's
// cell: its fanin arcs, pin caps and wire variability (the gate is the
// load), and the wire variability of its output net's sinks and PO pads
// (the gate is the driver). The caller has already validated the cell
// (arcs and wire coverage exist).
func (g *Graph) SetGateCell(gi int, cell string) error {
	g.cellOf[gi] = cell
	for p := int(g.pinOff[gi]); p < int(g.pinOff[gi+1]); p++ {
		for _, e := range []waveform.Edge{waveform.Falling, waveform.Rising} {
			arc, err := g.lib.Arc(cell, g.pinName[p], e)
			if err != nil {
				return err
			}
			g.pinArc[p][EdgeIdx(e)] = arc
		}
		pc, err := g.lib.PinCap(cell, g.pinName[p])
		if err != nil {
			return err
		}
		g.pinCap[p] = pc
		if err := g.refreshPinXW(p, gi); err != nil {
			return err
		}
	}
	// The gate drives its output net: refresh X_w toward every sink.
	outNet := int(g.outNetOf[gi])
	return g.refreshNetXW(outNet)
}

// refreshPinXW recomputes the wire variability of pin entry p (input net →
// gate gi).
func (g *Graph) refreshPinXW(p, gi int) error {
	if g.lib.Wire == nil {
		g.pinXW[p] = 0
		return nil
	}
	driver := g.opt.InputDriver
	if di := g.drvOf[g.pinNet[p]]; di >= 0 {
		driver = g.cellOf[di]
	}
	xw, err := g.lib.Wire.XW(driver, g.cellOf[gi])
	if err != nil {
		return err
	}
	g.pinXW[p] = xw
	return nil
}

// refreshNetXW recomputes the wire variability of every sink pin and PO
// pad of a net (used when the net's driver cell changes).
func (g *Graph) refreshNetXW(net int) error {
	if g.lib.Wire == nil {
		return nil
	}
	driver := g.opt.InputDriver
	if di := g.drvOf[net]; di >= 0 {
		driver = g.cellOf[di]
	}
	for k := int(g.fanOff[net]); k < int(g.fanOff[net+1]); k++ {
		sg := g.fanGate[k]
		if sg < 0 {
			continue
		}
		xw, err := g.lib.Wire.XW(driver, g.cellOf[sg])
		if err != nil {
			return err
		}
		// Refresh every pin of the sink gate that reads this net: a gate can
		// read one net on several pins, and each pin entry carries its own
		// copy of the (identical) wire variability.
		found := false
		for p := int(g.pinOff[sg]); p < int(g.pinOff[sg+1]); p++ {
			if int(g.pinNet[p]) == net {
				g.pinXW[p] = xw
				found = true
			}
		}
		if !found {
			return fmt.Errorf("sta: graph: net %s has no pin entry on gate %d", g.netNames[net], sg)
		}
	}
	for k := int(g.poOff[net]); k < int(g.poOff[net+1]); k++ {
		xw, err := g.lib.Wire.XW(driver, g.opt.POLoadCell)
		if err != nil {
			return err
		}
		g.poXW[k] = xw
	}
	return nil
}

// SetNetTree re-binds a net to a new parasitic tree, refreshing the total
// cap and every sink leaf/Elmore operand. The tree must carry the
// extractor's pin leaves (validated by the caller).
func (g *Graph) SetNetTree(net int, tree *rctree.Tree) error {
	g.treeOf[net] = tree
	g.totalCap[net] = tree.TotalCap()
	for k := int(g.fanOff[net]); k < int(g.fanOff[net+1]); k++ {
		sg := g.fanGate[k]
		if sg < 0 {
			continue
		}
		// Re-resolve every pin of the sink gate that reads this net (a gate
		// can read one net on several pins; each pin has its own leaf).
		for p := int(g.pinOff[sg]); p < int(g.pinOff[sg+1]); p++ {
			if int(g.pinNet[p]) != net {
				continue
			}
			name := fmt.Sprintf("pin:%s:%s", g.gateNames[sg], g.pinName[p])
			leaf := tree.NodeIndex(name)
			if leaf < 0 {
				return fmt.Errorf("sta: tree %s has no leaf %q", g.netNames[net], name)
			}
			g.pinLeaf[p] = int32(leaf)
			g.pinElmore[p] = tree.Elmore(leaf)
		}
	}
	poIdx := int(g.poOff[net])
	for k := int(g.fanOff[net]); k < int(g.fanOff[net+1]); k++ {
		if g.fanGate[k] >= 0 {
			continue
		}
		si := k - int(g.fanOff[net])
		name := fmt.Sprintf("pin:PO%d", si)
		leaf := tree.NodeIndex(name)
		if leaf < 0 {
			return fmt.Errorf("sta: tree %s has no PO leaf %q", g.netNames[net], name)
		}
		g.poSinkIdx[poIdx] = int32(si)
		g.poLeaf[poIdx] = int32(leaf)
		g.poElmore[poIdx] = tree.Elmore(leaf)
		poIdx++
	}
	return nil
}

// Tree returns the parasitic tree of a net (nil for treeless nets).
func (g *Graph) Tree(net int) *rctree.Tree { return g.treeOf[net] }

// CellOf returns the current cell of a gate.
func (g *Graph) CellOf(gi int) string { return g.cellOf[gi] }
