package sta

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/nsigma"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/waveform"
)

// This file is the reference implementation the compiled engine is pinned
// against: the pre-compiled wavefront engine over name-keyed state maps,
// kept verbatim as a test oracle. Every arithmetic step here is the
// sequence Graph.EvalGateInto, Graph.EndpointsForNet and Graph.backtrackFlat
// reproduce over flat arrays; TestCompiledMatchesLegacyBitwise and
// TestTopPathsFlatMatchesLegacy require their results, states and paths to
// agree bit for bit. Nothing outside the tests runs this code.

// legacyTimer is the reference engine's view of a Timer under one
// operating corner (the zero value is the neutral corner).
type legacyTimer struct {
	*Timer
	corner Corner
}

// withCorner returns the reference view of t evaluating under corner c.
func (t *Timer) withCorner(c Corner) (*legacyTimer, error) {
	if err := c.validate(0); err != nil {
		return nil, err
	}
	return &legacyTimer{Timer: t, corner: c}, nil
}

// NetState is the propagated timing state at a net root for one edge: the
// per-sigma-level arrival, the root slew, and the winning-arc bookkeeping
// backtracking needs.
type NetState struct {
	Arr    map[int]float64 // per sigma level
	Slew   float64         // at the net root
	Valid  bool
	Moms   stats.Moments // calibrated moments of the driving arc
	Quant  map[int]float64
	InPin  string // winning input pin of the driving gate
	InEdge waveform.Edge
	InSlew float64
	Load   float64
	// WinSinkIdx backtracks the winning fanin: sink index on the input net
	// that fed the winning pin.
	WinSinkIdx int
}

// StateMap holds the per-net propagated state of an analysis, indexed by net
// name then EdgeIdx.
type StateMap map[string]*[2]NetState

// At returns the state slot of a net, creating an invalid zero entry on
// first access.
func (m StateMap) At(net string) *[2]NetState {
	s, ok := m[net]
	if !ok {
		s = &[2]NetState{}
		m[net] = s
	}
	return s
}

// InputState computes the primary-input state of a net for both edges:
// zero arrival at every sigma level and the pad-driver root slew.
func (t *legacyTimer) InputState(net string) [2]NetState {
	var out [2]NetState
	for _, e := range []waveform.Edge{waveform.Falling, waveform.Rising} {
		st := &out[EdgeIdx(e)]
		st.Valid = true
		st.Slew = t.inputRootSlew(net, e)
		st.Arr = make(map[int]float64, len(t.opt.Levels))
		for _, n := range t.opt.Levels {
			st.Arr[n] = 0
		}
	}
	return out
}

// EvalGateBatch evaluates one gate under several corners in a single
// structural pass. The per-pin structural work — sink-leaf resolution, the
// raw Elmore delay, the wire variability X_w and the cell-arc lookup — does
// not depend on the corner, so it is computed once and shared; only the
// corner-marginal arithmetic (cap derate, wire transport, PERI slew, moment
// interpolation, quantiles) runs per corner. states[i] is the propagated
// state of corners[i]; outs[i] is its output-net state. Each corner's
// arithmetic runs in the order a lone corner's would, so a batch result is
// bit-identical to evaluating each corner alone. arcs counts structurally
// timed cell arcs (corner-independent).
func (t *Timer) EvalGateBatch(gi int, states []StateMap, corners []Corner) (outs [][2]NetState, arcs int, err error) {
	if len(states) != len(corners) {
		return nil, 0, fmt.Errorf("sta: EvalGateBatch: %d states for %d corners", len(states), len(corners))
	}
	g := &t.nl.Gates[gi]
	outNet := g.Output()
	tree := t.trees[outNet]
	if tree == nil {
		return nil, 0, fmt.Errorf("sta: gate %s output net %s has no tree", g.Name, outNet)
	}
	totalCap := tree.TotalCap()
	pins := t.pinsOf[gi]
	outs = make([][2]NetState, len(corners))
	best := make([]NetState, len(corners))
	// Scratch for the corner-marginal loop: per-corner running maxima and the
	// winner's quantiles accumulate in level-indexed slices, and the maps a
	// NetState carries are materialised once per (corner, edge) after the pin
	// loop — losing pins and superseded winners allocate nothing. li0 locates
	// sigma level 0, the winner-selection level.
	levels := t.opt.Levels
	nlev := len(levels)
	cand := make([]float64, nlev)
	qs := make([]float64, nlev)
	bestArr := make([]float64, len(corners)*nlev)
	bestQ := make([]float64, len(corners)*nlev)
	bestArc := make([]*nsigma.ArcModel, len(corners))
	li0 := -1
	for li, n := range levels {
		if n == 0 {
			li0 = li
		}
	}
	const ln9 = 2.1972245773362196
	for _, outEdge := range []waveform.Edge{waveform.Falling, waveform.Rising} {
		inEdge := outEdge.Opposite()
		for ci := range best {
			best[ci] = NetState{}
		}
		for _, pin := range pins {
			inNet := g.Pins[pin]
			// Validity is structural (which fanin cones have propagated), so
			// it agrees across corners; skip the structural work when no
			// corner has a valid state on this pin.
			anyValid := false
			for _, state := range states {
				if state.At(inNet)[EdgeIdx(inEdge)].Valid {
					anyValid = true
					break
				}
			}
			if !anyValid {
				continue
			}
			// Corner-independent structural work, computed once per pin.
			sinkIdx, leaf, err := t.sinkLeaf(inNet, gi, pin)
			if err != nil {
				return outs, arcs, err
			}
			rawElmore := t.trees[inNet].Elmore(leaf)
			xw, err := t.xwFor(inNet, gi)
			if err != nil {
				return outs, arcs, err
			}
			arc, err := t.lib.Arc(g.Cell, pin, inEdge)
			if err != nil {
				return outs, arcs, err
			}
			arcs++
			// Corner-marginal arithmetic, one corner at a time.
			for ci, c := range corners {
				inSt := states[ci].At(inNet)[EdgeIdx(inEdge)]
				if !inSt.Valid {
					continue
				}
				elmore := c.scaled(rawElmore)
				load := c.scaled(totalCap)
				pinSlew := math.Sqrt(inSt.Slew*inSt.Slew + (ln9*elmore)*(ln9*elmore))
				moms := arc.MomentsAt(pinSlew, load)
				base := ci * nlev
				for li, n := range levels {
					q := arc.Quant.Quantile(moms, n)
					qs[li] = q
					// Same association as the classic per-pin map build:
					// (arrival + wire transport) + cell quantile.
					cand[li] = (inSt.Arr[n] + (1+float64(n)*xw)*elmore) + q
				}
				var cand0, best0 float64
				if li0 >= 0 {
					cand0 = cand[li0]
					best0 = bestArr[base+li0]
				}
				if !best[ci].Valid || cand0 > best0 {
					copy(bestArr[base:base+nlev], cand)
					copy(bestQ[base:base+nlev], qs)
					bestArc[ci] = arc
					best[ci] = NetState{
						Valid:      true,
						Moms:       moms,
						InPin:      pin,
						InEdge:     inEdge,
						InSlew:     pinSlew,
						Load:       load,
						WinSinkIdx: sinkIdx,
					}
				} else {
					// Keep the per-level max even when level 0 loses.
					for li := range levels {
						if cand[li] > bestArr[base+li] {
							bestArr[base+li] = cand[li]
						}
					}
				}
			}
		}
		// Materialise the per-corner winners: one Arr/Quant map pair per
		// (corner, edge), holding the winner's quantiles and the merged
		// per-level maxima, with the winner's output slew.
		for ci := range corners {
			st := best[ci]
			if st.Valid {
				base := ci * nlev
				arr := make(map[int]float64, nlev)
				quant := make(map[int]float64, nlev)
				for li, n := range levels {
					arr[n] = bestArr[base+li]
					quant[n] = bestQ[base+li]
				}
				st.Arr = arr
				st.Quant = quant
				st.Slew = bestArc[ci].OutSlew(st.InSlew, st.Load)
			}
			outs[ci][EdgeIdx(outEdge)] = st
		}
	}
	return outs, arcs, nil
}

// EndpointsForNet transports a primary-output net's root state to each of
// its PO leaves, in the deterministic order the batch analyzer uses (sink
// index, then falling before rising). Invalid edges produce no entry.
func (t *legacyTimer) EndpointsForNet(po string, state StateMap) ([]EndpointEntry, error) {
	var entries []EndpointEntry
	for si, s := range t.fan[po] {
		if s.Gate >= 0 {
			continue
		}
		leaf, err := t.poLeaf(po, si)
		if err != nil {
			return nil, err
		}
		for _, e := range []waveform.Edge{waveform.Falling, waveform.Rising} {
			st := state.At(po)[EdgeIdx(e)]
			if !st.Valid {
				continue
			}
			arr, _, err := t.atLeaf(po, &st, leaf, -1)
			if err != nil {
				return nil, err
			}
			entries = append(entries, EndpointEntry{
				Key:  fmt.Sprintf("%s/%s", po, e),
				Edge: e,
				Arr:  arr,
			})
		}
	}
	return entries, nil
}

// ResultFrom assembles a Result from a propagated state and per-net
// endpoint entries: it selects the critical endpoint exactly as the batch
// analyzer does (primary outputs in declaration order, strict level-0 max)
// and backtracks the critical path. GatesTimed is left zero for the caller.
func (t *legacyTimer) ResultFrom(state StateMap, ep map[string][]EndpointEntry) (*Result, error) {
	res := &Result{EndpointArrivals: make(map[string]map[int]float64)}
	bestMean := math.Inf(-1)
	var bestNet string
	var bestEdge waveform.Edge
	var bestArr map[int]float64
	for _, po := range t.nl.Outputs {
		for _, e := range ep[po] {
			res.Endpoints++
			res.EndpointArrivals[e.Key] = e.Arr
			if e.Arr[0] > bestMean {
				bestMean = e.Arr[0]
				bestNet, bestEdge, bestArr = po, e.Edge, e.Arr
			}
		}
	}
	if bestNet == "" {
		return nil, fmt.Errorf("sta: no timed endpoints")
	}
	res.ArrivalQ = bestArr
	path, err := t.backtrack(state, bestNet, bestEdge)
	if err != nil {
		return nil, err
	}
	res.Critical = path
	return res, nil
}

// effInputSlew is the effective transition at a primary-input net under the
// timer's corner: per-net override first (an SDC-style constraint applies at
// every corner), then the corner's operating point, then the global default.
func (t *legacyTimer) effInputSlew(net string) float64 {
	if s, ok := t.opt.InputSlews[net]; ok {
		return s
	}
	if t.corner.InputSlew > 0 {
		return t.corner.InputSlew
	}
	return t.opt.InputSlew
}

// inputRootSlew models the transition time at a primary-input net root for
// the given edge: the assumed pad driver (Options.InputDriver) driving the
// net's total load — matching what the golden path Monte Carlo simulates.
// Designs timed against a library without the pad-driver arc fall back to
// the raw input slew.
func (t *legacyTimer) inputRootSlew(net string, e waveform.Edge) float64 {
	inSlew := t.effInputSlew(net)
	tree := t.trees[net]
	if tree == nil {
		return inSlew
	}
	info, err := t.lib.Cell(t.opt.InputDriver)
	if err != nil || len(info.Inputs) == 0 {
		return inSlew
	}
	arc, err := t.lib.Arc(t.opt.InputDriver, info.Inputs[0], e.Opposite())
	if err != nil {
		return inSlew
	}
	return arc.OutSlew(inSlew, t.corner.scaled(tree.TotalCap()))
}

// atLeaf transports a net-root state to a leaf: arrival via the wire
// quantile model, slew via the PERI degradation rule
// (leaf² = root² + (ln9·Elmore)²).
func (t *legacyTimer) atLeaf(net string, st *NetState, leaf int, sinkGate int) (map[int]float64, float64, error) {
	tree := t.trees[net]
	elmore := t.corner.scaled(tree.Elmore(leaf))
	xw, err := t.xwFor(net, sinkGate)
	if err != nil {
		return nil, 0, err
	}
	arr := make(map[int]float64, len(st.Arr))
	for n, a := range st.Arr {
		arr[n] = a + (1+float64(n)*xw)*elmore
	}
	const ln9 = 2.1972245773362196
	slew := math.Sqrt(st.Slew*st.Slew + (ln9*elmore)*(ln9*elmore))
	return arr, slew, nil
}

// backtrack reconstructs the critical path ending at the PO net/edge.
func (t *legacyTimer) backtrack(state StateMap, endNet string, endEdge waveform.Edge) (*Path, error) {
	type link struct {
		net  string
		edge waveform.Edge
	}
	var rev []link
	cur := link{net: endNet, edge: endEdge}
	for {
		rev = append(rev, cur)
		gi, ok := t.drv[cur.net]
		if !ok {
			break // reached a primary input
		}
		st := state[cur.net][EdgeIdx(cur.edge)]
		if !st.Valid {
			return nil, fmt.Errorf("sta: backtrack through invalid state at %s", cur.net)
		}
		cur = link{net: t.nl.Gates[gi].Pins[st.InPin], edge: st.InEdge}
	}
	// rev is endpoint→PI; build stages PI→endpoint.
	p := &Path{Endpoint: endNet}
	for i := len(rev) - 1; i >= 0; i-- {
		l := rev[i]
		stg := Stage{GateIdx: -1, Net: l.net, Tree: t.trees[l.net], SinkLeaf: -1}
		if gi, ok := t.drv[l.net]; ok {
			st := state[l.net][EdgeIdx(l.edge)]
			g := &t.nl.Gates[gi]
			stg.GateIdx = gi
			stg.Cell = g.Cell
			stg.InPin = st.InPin
			stg.InEdge = st.InEdge
			stg.InSlew = st.InSlew
			stg.Load = st.Load
			stg.CellMoments = st.Moms
			stg.CellQ = st.Quant
			stg.OutSlew = st.Slew
		} else {
			p.Launch = l.edge
			stg.InEdge = l.edge
			stg.InSlew = t.effInputSlew(l.net)
			st := state[l.net][EdgeIdx(l.edge)]
			stg.OutSlew = st.Slew
		}
		// Wire segment toward the next stage (or the endpoint PO).
		if i > 0 {
			nextNet := rev[i-1].net
			ngi := t.drv[nextNet]
			ng := &t.nl.Gates[ngi]
			nst := state[nextNet][EdgeIdx(rev[i-1].edge)]
			sinkIdx, leaf, err := t.sinkLeaf(l.net, ngi, nst.InPin)
			if err != nil {
				return nil, err
			}
			stg.SinkIdx = sinkIdx
			stg.SinkLeaf = leaf
			stg.SinkCell = ng.Cell
			stg.SinkPin = nst.InPin
			pc, err := t.lib.PinCap(ng.Cell, nst.InPin)
			if err != nil {
				return nil, err
			}
			stg.SinkPinCap = pc
		} else {
			// Endpoint: PO leaf.
			for si, s := range t.fan[l.net] {
				if s.Gate < 0 {
					leaf, err := t.poLeaf(l.net, si)
					if err != nil {
						return nil, err
					}
					stg.SinkIdx = si
					stg.SinkLeaf = leaf
					break
				}
			}
			if stg.SinkLeaf < 0 {
				return nil, fmt.Errorf("sta: endpoint %s has no PO leaf", l.net)
			}
		}
		stg.Elmore = t.corner.scaled(stg.Tree.Elmore(stg.SinkLeaf))
		sinkGate := -1
		if i > 0 {
			sinkGate = t.drv[rev[i-1].net]
		}
		xw, err := t.xwFor(l.net, sinkGate)
		if err != nil {
			return nil, err
		}
		stg.XW = xw
		const ln9 = 2.1972245773362196
		stg.LeafSlew = math.Sqrt(stg.OutSlew*stg.OutSlew + (ln9*stg.Elmore)*(ln9*stg.Elmore))
		p.Stages = append(p.Stages, stg)
	}
	return p, nil
}

// TopPathsFrom ranks a result's endpoints (mean arrival descending, then
// endpoint key for deterministic tie-breaking) and backtracks the worst
// path of each of the k slowest through the given state. It is the query
// half of AnalyzeTopPaths, reused by incremental snapshots.
func (t *legacyTimer) TopPathsFrom(state StateMap, res *Result, k int) ([]*Path, error) {
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
		p, err := t.backtrack(state, ep.net, ep.edge)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// analyzeCornersLegacy is the pre-compiled wavefront engine over the
// name-keyed StateMaps — retained verbatim as the reference implementation:
// the equivalence suite requires the compiled engine above to reproduce its
// results bit for bit on every circuit, corner set and worker count.
func (t *Timer) analyzeCornersLegacy(ctx context.Context, opts AnalyzeOptions) ([]*Result, []StateMap, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Corners.validate(); err != nil {
		return nil, nil, err
	}
	et := t
	if len(opts.Corners.Levels) > 0 {
		o := t.opt
		o.Levels = opts.Corners.Levels
		var err error
		et, err = t.WithOptions(o)
		if err != nil {
			return nil, nil, err
		}
	}
	corners := []Corner{{}}
	if len(opts.Corners.Corners) > 0 {
		corners = opts.Corners.Corners
	}
	timers := make([]*legacyTimer, len(corners))
	for ci, c := range corners {
		tc, err := et.withCorner(c)
		if err != nil {
			return nil, nil, err
		}
		timers[ci] = tc
	}
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	order, err := t.nl.Levelize()
	if err != nil {
		return nil, nil, err
	}
	groups := t.levelGroups(order)

	// Pre-seed every net the propagation touches, so worker goroutines only
	// ever read existing StateMap entries — a lazy At() insertion from a
	// worker would be a concurrent map write. Primary inputs get their
	// corner-specific boundary state; gate outputs get invalid placeholders
	// the per-level commits fill in.
	states := make([]StateMap, len(corners))
	for ci, tc := range timers {
		state := make(StateMap, t.nl.NumNets())
		for _, in := range t.nl.Inputs {
			*state.At(in) = tc.InputState(in)
		}
		for gi := range t.nl.Gates {
			state.At(t.nl.Gates[gi].Output())
		}
		states[ci] = state
	}

	type gateOut struct {
		outs [][2]NetState
		arcs int
	}
	gatesTimed := 0
	checkEvery := 1
	for _, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		workers := par
		if workers > len(grp) {
			workers = len(grp)
		}
		buf := make([]gateOut, len(grp))
		var lerr error
		if workers == 1 {
			for i, gi := range grp {
				checkEvery--
				if checkEvery <= 0 {
					checkEvery = 64
					if err := ctx.Err(); err != nil {
						lerr = resilience.Wrap("sta: analyze", err)
						break
					}
				}
				outs, arcs, err := et.EvalGateBatch(gi, states, corners)
				if err != nil {
					lerr = err
					break
				}
				buf[i] = gateOut{outs: outs, arcs: arcs}
			}
		} else {
			errs := make([]error, len(grp))
			var next atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					countdown := 1
					for {
						i := int(next.Add(1)) - 1
						if i >= len(grp) || stop.Load() {
							return
						}
						countdown--
						if countdown <= 0 {
							countdown = 64
							if err := ctx.Err(); err != nil {
								errs[i] = resilience.Wrap("sta: analyze", err)
								stop.Store(true)
								return
							}
						}
						outs, arcs, err := et.EvalGateBatch(grp[i], states, corners)
						if err != nil {
							errs[i] = err
							stop.Store(true)
							return
						}
						buf[i] = gateOut{outs: outs, arcs: arcs}
					}
				}()
			}
			wg.Wait()
			// Lowest-index error wins, so the reported failure does not
			// depend on goroutine scheduling.
			for _, err := range errs {
				if err != nil {
					lerr = err
					break
				}
			}
		}
		if lerr != nil {
			return nil, nil, lerr
		}
		// Deterministic reduction: commit the buffered outputs in slice
		// order on this goroutine.
		for i, gi := range grp {
			outNet := t.nl.Gates[gi].Output()
			for ci := range states {
				*states[ci].At(outNet) = buf[i].outs[ci]
			}
			gatesTimed += buf[i].arcs
		}
	}

	// Endpoints and per-corner results.
	results := make([]*Result, len(corners))
	for ci, tc := range timers {
		ep := make(map[string][]EndpointEntry, len(t.nl.Outputs))
		for _, po := range t.nl.Outputs {
			if _, done := ep[po]; done {
				continue
			}
			entries, err := tc.EndpointsForNet(po, states[ci])
			if err != nil {
				return nil, nil, err
			}
			ep[po] = entries
		}
		res, err := tc.ResultFrom(states[ci], ep)
		if err != nil {
			return nil, nil, err
		}
		res.GatesTimed = gatesTimed
		results[ci] = res
	}
	return results, states, nil
}

// stateMapOf materialises the name-keyed StateMap view of a compiled
// graph's flat state, so it can be compared with the reference engine's.
func stateMapOf(g *Graph, st *FlatState) StateMap {
	out := make(StateMap, len(g.netNames))
	nlev := st.nlev
	for net := range g.netNames {
		slot := &[2]NetState{}
		for ei := 0; ei < 2; ei++ {
			si := net*2 + ei
			ns := &slot[ei]
			ns.Valid = st.valid[si]
			if !ns.Valid {
				continue
			}
			ns.Slew = st.slew[si]
			ns.Arr = make(map[int]float64, nlev)
			for li, n := range g.levels {
				ns.Arr[n] = st.arr[si*nlev+li]
			}
			if wp := st.winPin[si]; wp >= 0 {
				ns.InPin = g.pinName[wp]
				ns.InEdge = waveform.Edge(ei == 1).Opposite()
				ns.InSlew = st.inSlew[si]
				ns.Load = st.load[si]
				ns.Moms = st.moms[si]
				ns.WinSinkIdx = int(g.pinSinkIdx[wp])
				ns.Quant = make(map[int]float64, nlev)
				for li, n := range g.levels {
					ns.Quant[n] = st.quant[si*nlev+li]
				}
			}
		}
		out[g.netNames[net]] = slot
	}
	return out
}
