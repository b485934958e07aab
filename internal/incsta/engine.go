// Package incsta is the incremental N-sigma statistical STA engine: it
// keeps the levelized per-net arrival/slew state of a design resident and,
// after an ECO edit (cell resize/swap, net re-extraction, input-slew
// change), re-propagates eq. 10 only through the edit's downstream cone,
// cutting the cone early where recomputed quantiles match the cached state.
//
// This is the block-level caching idea of Li et al.'s hierarchical SSTA
// brought to the paper's quantile-sum model: statistical arrival state is
// cached at every net and re-derived only where an edit can have changed
// it. The engine runs on internal/sta's compiled graph: the design is
// lowered once into flat structure-of-arrays (sta.Graph) and the cached
// state lives in per-corner float64 planes (sta.FlatState), so dirty-cone
// re-propagation indexes arrays instead of hashing net names. All
// arithmetic is the shared compiled evaluation core (Graph.EvalGateInto,
// Graph.EndpointsForNet, Graph.ResultFromFlat), so with Epsilon = 0 the
// incremental state is bit-identical to a fresh sta analysis of the edited
// design — the consistency guarantee the property tests pin down.
//
// Concurrency model: edits are serialized on an internal mutex and publish
// an immutable Snapshot (a batch of edits publishes once, at its end);
// queries read the latest snapshot lock-free (see Snapshot), which is what
// the long-lived timing server builds on. Edits
// mutate the compiled graph copy-on-write (CloneForEdit), so a published
// snapshot keeps a frozen consistent graph while later edits refresh a
// private clone.
package incsta

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/sta"
	"repro/internal/timinglib"
)

// Config tunes an Engine.
type Config struct {
	// Options are the sta analysis options (validated by sta.NewTimer).
	Options sta.Options
	// Epsilon is the early-termination cutoff: re-propagation stops at a
	// gate whose recomputed arrival quantiles and root slew all lie within
	// Epsilon (seconds) of the cached state. 0 (the default) demands exact
	// equality and preserves bit-identity with a fresh analysis; a positive
	// value trades per-endpoint accuracy (bounded by path depth × Epsilon)
	// for smaller re-propagation cones. With multiple corners the cone cuts
	// only where every corner matches its cache.
	Epsilon float64
	// Corners batches multiple operating corners through the engine: every
	// edit re-propagates all of them in one pass over the dirty cone, and
	// each snapshot carries a per-corner result. Empty means the single
	// neutral corner; corner 0 is the primary one Snapshot.Result serves.
	// A Levels override in the set applies to the whole engine.
	Corners sta.CornerSet
	// Parallelism is the wavefront worker count used by full passes and
	// dirty-cone re-propagation (≤1 = sequential). Results are bit-identical
	// at any value: same-level gates are independent and commits are ordered.
	Parallelism int
}

// Stats are the cumulative re-propagation counters of an engine — the
// numbers behind the server's /metrics and the incremental-vs-full
// comparison of examples/incremental.
type Stats struct {
	// Edits counts applied edits (including no-ops).
	Edits uint64
	// GatesReevaluated counts gate evaluations performed by edit
	// re-propagation (full rebuilds excluded).
	GatesReevaluated uint64
	// GatesCut counts re-evaluated gates whose state matched the cache
	// within Epsilon, terminating their cone early.
	GatesCut uint64
	// EndpointsRecomputed counts endpoint entries re-transported.
	EndpointsRecomputed uint64
	// FullPasses counts full propagations (construction and Rebuild).
	FullPasses uint64
	// GateCount is the design size a full pass would evaluate.
	GateCount uint64
	// Publishes counts published snapshots: one per full pass, per
	// ApplyEdit and per ApplyBatch that applied at least one edit.
	Publishes uint64
}

// CacheHitRatio is the fraction of gate evaluations the incremental engine
// avoided versus running a full analysis per edit: 1 − reevaluated/(edits ×
// gates). 0 until the first edit.
func (s Stats) CacheHitRatio() float64 {
	denom := float64(s.Edits) * float64(s.GateCount)
	if denom == 0 {
		return 0
	}
	r := 1 - float64(s.GatesReevaluated)/denom
	if r < 0 {
		return 0
	}
	return r
}

// Engine is an incremental timing view of one design. All exported methods
// are safe for concurrent use: edits serialize on an internal mutex,
// queries go through immutable snapshots.
type Engine struct {
	mu    sync.Mutex // serializes edits and rebuilds
	lib   *timinglib.File
	nl    *netlist.Netlist // engine-owned copy; edits mutate Cell fields only
	idx   *netlist.Index
	trees map[string]*rctree.Tree // entries replaced on edit, trees never mutated
	timer *sta.Timer
	eps   float64

	order []int // topological gate order
	pos   []int // gate index → position in order
	lvl   []int // gate index → logic level (same-level gates are independent)

	corners []sta.Corner // normalized corner batch; corner 0 is primary
	par     int          // wavefront worker count (≥1)

	// graph is the engine's compiled design; edits replace it with a
	// copy-on-write clone before mutating, so snapshots holding the old
	// pointer stay frozen. flat is the resident per-corner propagated state
	// over graph's dense net ids; snapshots publish plane clones.
	graph *sta.Graph
	flat  []*sta.FlatState

	// Reusable evaluation buffers of the dirty-cone loop: one scratch per
	// worker, one output buffer per batch slot (grown on demand). Sized by
	// (corner count, level count), both fixed for the engine's life.
	scratch []*sta.EvalScratch
	outs    []*sta.GateOut

	epts []map[string][]sta.EndpointEntry // per-corner endpoint entries

	stats   Stats
	version uint64
	snap    atomic.Pointer[Snapshot]
}

// New builds an engine over a copy of the netlist and parasitics (the
// caller's values are never mutated) and runs the initial full propagation,
// published as version 1.
func New(lib *timinglib.File, nl *netlist.Netlist, trees map[string]*rctree.Tree, cfg Config) (*Engine, error) {
	return NewAt(lib, nl, trees, cfg, 0)
}

// NewAt is New for a design that already includes seq applied edits (a
// recovered or shipped copy): its initial analysis is published as version
// seq+1, so the version keeps counting edits across rebuilds.
func NewAt(lib *timinglib.File, nl *netlist.Netlist, trees map[string]*rctree.Tree, cfg Config, seq uint64) (*Engine, error) {
	if cfg.Epsilon < 0 {
		return nil, &EditError{Op: "new", Reason: fmt.Sprintf("negative epsilon %g", cfg.Epsilon)}
	}
	if err := cfg.Corners.Validate(); err != nil {
		return nil, err
	}
	opt := cfg.Options
	if len(cfg.Corners.Levels) > 0 {
		opt.Levels = cfg.Corners.Levels
	}
	nlCopy := copyNetlist(nl)
	treeCopy := make(map[string]*rctree.Tree, len(trees))
	for net, t := range trees {
		treeCopy[net] = t
	}
	timer, err := sta.NewTimer(lib, nlCopy, treeCopy, opt)
	if err != nil {
		return nil, err
	}
	idx, err := nlCopy.BuildIndex()
	if err != nil {
		return nil, err
	}
	order, err := nlCopy.Levelize()
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(nlCopy.Gates))
	for p, gi := range order {
		pos[gi] = p
	}
	lvl := make([]int, len(nlCopy.Gates))
	for _, gi := range order {
		l := 0
		for _, net := range nlCopy.Gates[gi].InputNets() {
			if di, ok := idx.Driver(net); ok && lvl[di]+1 > l {
				l = lvl[di] + 1
			}
		}
		lvl[gi] = l
	}
	corners := cfg.Corners.Corners
	if len(corners) == 0 {
		corners = []sta.Corner{{}}
	}
	par := cfg.Parallelism
	if par < 1 {
		par = 1
	}
	e := &Engine{
		lib: lib, nl: nlCopy, idx: idx, trees: treeCopy, timer: timer,
		eps: cfg.Epsilon, order: order, pos: pos, lvl: lvl,
		corners: corners, par: par,
		stats:   Stats{GateCount: uint64(len(nlCopy.Gates))},
		version: seq,
	}
	if err := e.rebuildLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// copyNetlist deep-copies the parts of a netlist edits mutate (the gate
// slice and pin maps); name slices are shared read-only.
func copyNetlist(nl *netlist.Netlist) *netlist.Netlist {
	out := &netlist.Netlist{
		Name:    nl.Name,
		Inputs:  nl.Inputs,
		Outputs: nl.Outputs,
		Gates:   make([]netlist.Gate, len(nl.Gates)),
	}
	for i, g := range nl.Gates {
		pins := make(map[string]string, len(g.Pins))
		for p, n := range g.Pins {
			pins[p] = n
		}
		out.Gates[i] = netlist.Gate{Name: g.Name, Cell: g.Cell, Pins: pins}
	}
	return out
}

// Rebuild discards the cached state and re-propagates the whole design —
// recovery after external corruption, and the baseline the property tests
// compare against.
func (e *Engine) Rebuild() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rebuildLocked()
}

// rebuildLocked recompiles the design and runs a full compiled propagation.
func (e *Engine) rebuildLocked() error {
	ctx, span := obs.StartSpan(context.Background(), "incsta_rebuild",
		obs.A("gates", len(e.nl.Gates)), obs.A("corners", len(e.corners)))
	defer span.End()
	// A private Compile (not the timer's shared Compiled cache): the engine
	// mutates its graph copy-on-write across edits, and the netlist/tree
	// values the timer sees change in place under the engine lock.
	g, err := e.timer.Compile()
	if err != nil {
		return err
	}
	flat := make([]*sta.FlatState, len(e.corners))
	for ci, c := range e.corners {
		flat[ci] = g.NewState()
		g.InitPI(flat[ci], c)
	}
	if _, err := g.Propagate(ctx, flat, e.corners, e.par); err != nil {
		return err
	}
	e.graph = g
	e.flat = flat
	if e.scratch == nil {
		workers := e.par
		if workers < 1 {
			workers = 1
		}
		e.scratch = make([]*sta.EvalScratch, workers)
		for w := range e.scratch {
			e.scratch[w] = g.NewScratch(len(e.corners))
		}
	}
	eps := make([]map[string][]sta.EndpointEntry, len(e.corners))
	for ci, c := range e.corners {
		ep := make(map[string][]sta.EndpointEntry, len(e.nl.Outputs))
		for _, po := range e.nl.Outputs {
			if _, done := ep[po]; done {
				continue
			}
			id, ok := g.NetID(po)
			if !ok {
				return fmt.Errorf("incsta: output net %s not compiled", po)
			}
			ep[po] = g.EndpointsForNet(id, flat[ci], c)
		}
		eps[ci] = ep
	}
	e.epts = eps
	e.stats.FullPasses++
	mFullPasses.Inc()
	e.version++
	return e.publishLocked()
}

// ensureOuts grows the per-batch-slot output buffers to at least n.
func (e *Engine) ensureOuts(n int) {
	for len(e.outs) < n {
		e.outs = append(e.outs, e.graph.NewGateOut(len(e.corners)))
	}
}

// evalBatchFlat evaluates a batch of same-level gates under every corner
// into e.outs[0:len(batch)]. Same-level gates never read each other's
// outputs, so evaluation order is irrelevant; the caller compares/commits
// in batch order, which keeps the whole pass bit-identical to a sequential
// per-gate evaluation at any worker count. Compiled evaluation cannot fail:
// every structural lookup was resolved at compile time.
func (e *Engine) evalBatchFlat(batch []int) {
	e.ensureOuts(len(batch))
	if e.par <= 1 || len(batch) == 1 {
		sc := e.scratch[0]
		for i, gi := range batch {
			e.graph.EvalGateInto(gi, e.flat, e.corners, sc, e.outs[i])
		}
		return
	}
	workers := e.par
	if workers > len(batch) {
		workers = len(batch)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := e.scratch[w]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				e.graph.EvalGateInto(batch[i], e.flat, e.corners, sc, e.outs[i])
			}
		}(w)
	}
	wg.Wait()
}

// dirtySet collects the frontier of an edit before propagation.
type dirtySet struct {
	gates     map[int]struct{}
	inputs    map[string]struct{}
	endpoints map[string]struct{}
}

func newDirtySet() *dirtySet {
	return &dirtySet{
		gates:     make(map[int]struct{}),
		inputs:    make(map[string]struct{}),
		endpoints: make(map[string]struct{}),
	}
}

// touchNet marks every consumer of a net whose parasitics (or root state)
// changed: the driving gate (its load changed), every sink gate (their pin
// arrival changed), the PI initialisation when the net is a primary input,
// and the endpoint transport when the net feeds a primary output.
func (e *Engine) touchNet(d *dirtySet, net string) {
	if gi, ok := e.idx.Driver(net); ok {
		d.gates[gi] = struct{}{}
	}
	if e.idx.IsInput(net) {
		d.inputs[net] = struct{}{}
	}
	for _, s := range e.idx.Fanout(net) {
		if s.Gate >= 0 {
			d.gates[s.Gate] = struct{}{}
		} else {
			d.endpoints[net] = struct{}{}
		}
	}
}

// gateHeap pops dirty gates in topological order, so every gate is
// evaluated at most once per edit and always after its dirty predecessors.
type gateHeap struct {
	items []int
	pos   []int
}

func (h *gateHeap) Len() int           { return len(h.items) }
func (h *gateHeap) Less(i, j int) bool { return h.pos[h.items[i]] < h.pos[h.items[j]] }
func (h *gateHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *gateHeap) Push(x any)         { h.items = append(h.items, x.(int)) }
func (h *gateHeap) Pop() any {
	n := len(h.items) - 1
	x := h.items[n]
	h.items = h.items[:n]
	return x
}

// propagate re-derives the timing state downstream of the dirty frontier.
// It mutates the resident flat state in place (snapshots hold their own
// plane copies) and returns the per-edit counters.
func (e *Engine) propagate(d *dirtySet) *Report {
	rep := &Report{Seeded: len(d.gates) + len(d.inputs)}
	g := e.graph

	// Re-derive dirty primary inputs first; their change feeds the gate
	// frontier exactly like a gate-state change. A corner set is updated as
	// a unit: the cached state is kept only when every corner matches.
	for net := range d.inputs {
		id, ok := g.NetID(net)
		if !ok {
			continue
		}
		slews := make([][2]float64, len(e.corners))
		changed := false
		for ci, c := range e.corners {
			slews[ci] = g.PISlews(id, c)
			if !e.flat[ci].PIMatches(id, slews[ci], e.eps) {
				changed = true
			}
		}
		if !changed {
			continue
		}
		for ci := range e.corners {
			g.CommitPI(e.flat[ci], id, slews[ci])
		}
		for _, s := range e.idx.Fanout(net) {
			if s.Gate >= 0 {
				d.gates[s.Gate] = struct{}{}
			} else {
				d.endpoints[net] = struct{}{}
			}
		}
	}

	h := &gateHeap{pos: e.pos, items: make([]int, 0, len(d.gates))}
	queued := make(map[int]struct{}, len(d.gates))
	push := func(gi int) {
		if _, ok := queued[gi]; ok {
			return
		}
		queued[gi] = struct{}{}
		heap.Push(h, gi)
	}
	for gi := range d.gates {
		push(gi)
	}
	var batch []int
	for h.Len() > 0 {
		// Pop the frontier's whole current level: same-level gates are
		// independent, so they form one (possibly parallel) batch, and their
		// fanouts land at strictly deeper levels, preserving heap order.
		batch = append(batch[:0], heap.Pop(h).(int))
		for h.Len() > 0 && e.lvl[h.items[0]] == e.lvl[batch[0]] {
			batch = append(batch, heap.Pop(h).(int))
		}
		e.evalBatchFlat(batch)
		for i, gi := range batch {
			rep.Reevaluated++
			out := e.outs[i]
			if g.OutMatches(gi, e.flat, out, e.eps) {
				rep.Cut++
				continue // cone terminates: downstream state cannot change
			}
			g.CommitGate(gi, e.flat, out)
			outNet := g.OutNet(gi)
			for _, sg := range g.FanoutGates(outNet) {
				if sg >= 0 {
					push(int(sg))
				} else {
					d.endpoints[g.NetName(outNet)] = struct{}{}
				}
			}
		}
	}

	for net := range d.endpoints {
		id, ok := g.NetID(net)
		if !ok {
			continue
		}
		for ci, c := range e.corners {
			entries := g.EndpointsForNet(id, e.flat[ci], c)
			e.epts[ci][net] = entries
			if ci == 0 {
				// Report.Endpoints stays the structural (primary-corner)
				// entry count, independent of how many corners are batched.
				rep.Endpoints += len(entries)
			}
		}
	}
	return rep
}

// commitEdit runs propagation for a prepared dirty set, updates counters
// and advances the version; the caller publishes. Compiled propagation
// cannot fail (all structural resolution happened at compile time), so an
// edit that passed validation always completes.
func (e *Engine) commitEdit(op string, d *dirtySet) *Report {
	t0 := time.Now()
	_, span := obs.StartSpan(context.Background(), "incsta_edit", obs.A("op", op))
	defer span.End()
	rep := e.propagate(d)
	rep.Op = op
	e.stats.Edits++
	e.stats.GatesReevaluated += uint64(rep.Reevaluated)
	e.stats.GatesCut += uint64(rep.Cut)
	e.stats.EndpointsRecomputed += uint64(rep.Endpoints)
	e.version++
	rep.Version = e.version
	mEdits.Inc()
	hDirtyCone.Observe(float64(rep.Reevaluated))
	hEpsilonCut.Observe(float64(rep.Cut))
	hEditSeconds.ObserveSince(t0)
	span.SetAttr("reevaluated", rep.Reevaluated)
	span.SetAttr("cut", rep.Cut)
	span.SetAttr("endpoints", rep.Endpoints)
	return rep
}

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// GateCount returns the number of gates in the design.
func (e *Engine) GateCount() int { return len(e.nl.Gates) }

// Epsilon returns the engine's early-termination cutoff (0 = bit-exact) —
// part of the configuration a persisted snapshot needs to rebuild an
// equivalent engine.
func (e *Engine) Epsilon() float64 { return e.eps }

// Corners returns the engine's operating-corner batch (at least the neutral
// corner at index 0). The slice is shared; do not mutate.
func (e *Engine) Corners() []sta.Corner { return e.corners }

// Parallelism returns the engine's effective wavefront worker count (≥1).
func (e *Engine) Parallelism() int { return e.par }

// Snapshot returns the latest published immutable view. It never returns
// nil on an engine built by New.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }
