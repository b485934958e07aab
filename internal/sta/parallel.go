package sta

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// This file is the wavefront scheduler — the one propagation engine behind
// every analysis. The levelized netlist is evaluated level by level: gates
// within a level have no data dependencies (a gate's level is one past its
// deepest fanin driver, so same-level gates never read each other's
// outputs), which makes each level an embarrassingly parallel wavefront.
//
// The engine runs on the compiled graph (compile.go): one Compile lowers
// the design into flat arrays, then each level is a linear scan of
// EvalGateInto calls over per-worker scratch buffers, committed straight
// into the per-corner float64 planes. Distinct gates drive distinct output
// nets, so same-level workers write disjoint plane slots and need no
// buffered reduction; and because every gate's arithmetic is self-contained
// (no cross-gate floating-point accumulation), the committed values are
// bit-identical at any worker count — parallelism changes only the
// wall-clock, never a single bit of the result.

// AnalyzeAll times the design under every corner of the set in one
// levelized traversal, optionally spreading each wavefront level across a
// bounded worker pool. results[i] belongs to opts.Corners.Corners[i] (one
// neutral-corner result when the set is empty). Results are
// bit-identical to running each corner through a sequential Analyze, at any
// Parallelism.
func (t *Timer) AnalyzeAll(ctx context.Context, opts AnalyzeOptions) ([]*Result, error) {
	_, _, results, err := t.analyzeCornersFlat(ctx, opts)
	return results, err
}

// AnalyzeAllFlat is AnalyzeAll returning the compiled graph and the flat
// per-corner states — the allocation-free surface the incremental engine
// and flat-state queries build on.
func (t *Timer) AnalyzeAllFlat(ctx context.Context, opts AnalyzeOptions) (*Graph, []*FlatState, []*Result, error) {
	return t.analyzeCornersFlat(ctx, opts)
}

// analyzeCornersFlat is the compiled wavefront engine proper.
func (t *Timer) analyzeCornersFlat(ctx context.Context, opts AnalyzeOptions) (*Graph, []*FlatState, []*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	if err := opts.Corners.validate(); err != nil {
		return nil, nil, nil, err
	}
	// The evaluation timer: the receiver, with the set's Levels override
	// applied when present.
	et := t
	if len(opts.Corners.Levels) > 0 {
		o := t.opt
		o.Levels = opts.Corners.Levels
		var err error
		et, err = t.WithOptions(o)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	corners := opts.Corners.normalized()
	g, err := et.Compiled()
	if err != nil {
		return nil, nil, nil, err
	}
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	ctx, span := obs.StartSpan(ctx, "sta_analyze",
		obs.A("gates", g.NumGates()), obs.A("corners", len(corners)),
		obs.A("parallelism", par))
	defer span.End()

	states := make([]*FlatState, len(corners))
	for ci, c := range corners {
		states[ci] = g.NewState()
		g.InitPI(states[ci], c)
	}
	gatesTimed, err := g.Propagate(ctx, states, corners, par)
	if err != nil {
		return nil, nil, nil, err
	}

	// Endpoints and per-corner results.
	results := make([]*Result, len(corners))
	for ci, c := range corners {
		ep := make(map[string][]EndpointEntry, len(g.outputs))
		for _, po := range g.outputs {
			name := g.netNames[po]
			if _, done := ep[name]; done {
				continue
			}
			ep[name] = g.EndpointsForNet(int(po), states[ci], c)
		}
		res, err := g.ResultFromFlat(states[ci], c, ep)
		if err != nil {
			return nil, nil, nil, err
		}
		res.GatesTimed = gatesTimed
		results[ci] = res
	}
	mAnalyses.Inc()
	mGatesEvaluated.Add(uint64(gatesTimed))
	mCornerGateEvals.Add(uint64(gatesTimed * len(corners)))
	if len(corners) > 1 {
		mCornerBatches.Inc()
	}
	hAnalyzeSeconds.ObserveSince(t0)
	return g, states, results, nil
}

// Propagate sweeps the levelized order, evaluating every gate under every
// corner into the flat states with up to par workers per level. The
// steady-state loop performs no allocations: workers reuse one scratch and
// one output buffer each and commit straight into the per-corner planes
// (distinct gates → disjoint output-net slots). Returns the structural
// cell-arc count (Result.GatesTimed).
func (g *Graph) Propagate(ctx context.Context, states []*FlatState, corners []Corner, par int) (int, error) {
	nc := len(corners)
	workers := par
	if workers < 1 {
		workers = 1
	}
	scratch := make([]*EvalScratch, workers)
	outBuf := make([]*GateOut, workers)
	for w := 0; w < workers; w++ {
		scratch[w] = g.NewScratch(nc)
		outBuf[w] = g.NewGateOut(nc)
	}
	gatesTimed := 0
	// Cancellation granularity: every 64 gates (and before the first), per
	// evaluating goroutine. Gate evaluation is cheap LUT lookups, so this
	// bounds cancel latency without a branch-heavy hot loop.
	checkEvery := 1
	nLevels := len(g.levOff) - 1
	for lvl := 0; lvl < nLevels; lvl++ {
		grp := g.order[g.levOff[lvl]:g.levOff[lvl+1]]
		if len(grp) == 0 {
			continue
		}
		lw := workers
		if lw > len(grp) {
			lw = len(grp)
		}
		lctx, lspan := obs.StartSpan(ctx, "sta_level",
			obs.A("level", lvl), obs.A("gates", len(grp)), obs.A("workers", lw))
		hLevelParallelism.Observe(float64(lw))
		var lerr error
		if lw == 1 {
			sc, out := scratch[0], outBuf[0]
			for _, gi := range grp {
				checkEvery--
				if checkEvery <= 0 {
					checkEvery = 64
					if err := lctx.Err(); err != nil {
						lerr = resilience.Wrap("sta: analyze", err)
						break
					}
				}
				g.EvalGateInto(int(gi), states, corners, sc, out)
				g.CommitGate(int(gi), states, out)
				gatesTimed += out.Arcs
			}
		} else {
			errs := make([]error, lw)
			arcs := make([]int, lw)
			var next atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < lw; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					gWorkersBusy.Add(1)
					defer gWorkersBusy.Add(-1)
					sc, out := scratch[w], outBuf[w]
					countdown := 1
					for {
						i := int(next.Add(1)) - 1
						if i >= len(grp) || stop.Load() {
							return
						}
						countdown--
						if countdown <= 0 {
							countdown = 64
							if err := lctx.Err(); err != nil {
								errs[w] = resilience.Wrap("sta: analyze", err)
								stop.Store(true)
								return
							}
						}
						gi := int(grp[i])
						// Direct commit: this gate's output-net slots are
						// written by no other worker this level, and the
						// post-level wg.Wait orders the writes before any
						// next-level read.
						g.EvalGateInto(gi, states, corners, sc, out)
						g.CommitGate(gi, states, out)
						arcs[w] += out.Arcs
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < lw; w++ {
				if errs[w] != nil && lerr == nil {
					lerr = errs[w]
				}
				gatesTimed += arcs[w]
			}
		}
		lspan.End()
		if lerr != nil {
			return 0, lerr
		}
	}
	return gatesTimed, nil
}
