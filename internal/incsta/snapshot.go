package incsta

import (
	"context"
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/sta"
)

// Snapshot is an immutable, internally consistent view of the engine's
// timing state at one edit version. Queries on a snapshot are lock-free and
// safe to run concurrently with further edits: the compiled graph, flat
// state planes and endpoint entries it references are never mutated after
// publication — edits mutate a copy-on-write clone of the graph and commit
// into the engine's private planes, never through a published snapshot.
type Snapshot struct {
	corners []sta.Corner
	graph   *sta.Graph
	flat    []*sta.FlatState
	eps     []map[string][]sta.EndpointEntry
	results []*sta.Result
	stats   Stats
	version uint64
}

// publishLocked assembles and installs a fresh snapshot of the engine's
// current state at e.version. Called with e.mu held. The compiled graph is
// shared by pointer (edits clone before mutating) and the endpoint maps are
// shallow-copied (entry slices are replaced wholesale, never appended to),
// but the flat per-corner planes are copied and every corner's Result is
// rebuilt, so a publish is O(design): edit bodies only advance the version,
// and ApplyBatch publishes once for all of them.
func (e *Engine) publishLocked() error {
	flat := make([]*sta.FlatState, len(e.corners))
	eps := make([]map[string][]sta.EndpointEntry, len(e.corners))
	results := make([]*sta.Result, len(e.corners))
	for ci, c := range e.corners {
		flat[ci] = e.flat[ci].Clone()
		ep := make(map[string][]sta.EndpointEntry, len(e.epts[ci]))
		for net, entries := range e.epts[ci] {
			ep[net] = entries
		}
		eps[ci] = ep
		res, err := e.graph.ResultFromFlat(flat[ci], c, eps[ci])
		if err != nil {
			return err
		}
		results[ci] = res
	}
	e.stats.Publishes++
	e.snap.Store(&Snapshot{
		corners: e.corners, graph: e.graph, flat: flat, eps: eps,
		results: results, stats: e.stats, version: e.version,
	})
	return nil
}

// Version is the edit sequence number of the snapshot (1 = initial full
// analysis; each edit and rebuild increments it).
func (s *Snapshot) Version() uint64 { return s.version }

// Stats returns the cumulative engine counters at publication time.
func (s *Snapshot) Stats() Stats { return s.stats }

// Result returns the primary-corner analysis result at this version:
// critical path, propagated arrival quantiles and per-endpoint arrivals.
// The result is shared by all callers of this snapshot and must not be
// mutated. Result.GatesTimed is zero: an incremental state has no
// single-pass arc count (see Stats for the cumulative counters).
func (s *Snapshot) Result() *sta.Result { return s.results[0] }

// Corners returns the operating corners this snapshot carries results for
// (at least the neutral corner at index 0). The slice is shared; do not
// mutate.
func (s *Snapshot) Corners() []sta.Corner { return s.corners }

// CornerIndex resolves a corner by its label (Corner.Label: explicit name
// or "corner<i>"). The empty string resolves to the primary corner 0.
func (s *Snapshot) CornerIndex(name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	for i, c := range s.corners {
		if c.Label(i) == name {
			return i, true
		}
	}
	return 0, false
}

// ResultAt returns the analysis result of one corner by index.
func (s *Snapshot) ResultAt(ci int) (*sta.Result, error) {
	if ci < 0 || ci >= len(s.results) {
		return nil, fmt.Errorf("incsta: corner index %d out of range [0,%d)", ci, len(s.results))
	}
	return s.results[ci], nil
}

// WorstPaths ranks the primary corner's endpoints by mean arrival (ties by
// endpoint key) and backtracks the worst path of each of the k slowest. It
// runs sta.Graph.TopPathsFlat, the same top-k that Timer.AnalyzeTopPaths
// runs, so a fresh analysis of the edited design returns the same paths.
func (s *Snapshot) WorstPaths(k int) ([]*sta.Path, error) {
	return s.graph.TopPathsFlat(s.flat[0], s.corners[0], s.results[0], k)
}

// WorstPathsAt is WorstPaths for one corner by index.
func (s *Snapshot) WorstPathsAt(ci, k int) ([]*sta.Path, error) {
	if ci < 0 || ci >= len(s.results) {
		return nil, fmt.Errorf("incsta: corner index %d out of range [0,%d)", ci, len(s.results))
	}
	return s.graph.TopPathsFlat(s.flat[ci], s.corners[ci], s.results[ci], k)
}

// Slack runs a setup check of every primary-corner endpoint against period
// at one sigma level.
func (s *Snapshot) Slack(period float64, level int) (*sta.SlackReport, error) {
	return s.results[0].Slack(period, level)
}

// EndpointSlacks returns the primary corner's per-endpoint slack at one
// sigma level, keyed "net/edge" — the per-endpoint view behind the server's
// query API.
func (s *Snapshot) EndpointSlacks(period float64, level int) (map[string]float64, error) {
	return s.EndpointSlacksAt(0, period, level)
}

// EndpointSlacksAt is EndpointSlacks for one corner by index.
func (s *Snapshot) EndpointSlacksAt(ci int, period float64, level int) (map[string]float64, error) {
	if ci < 0 || ci >= len(s.results) {
		return nil, fmt.Errorf("incsta: corner index %d out of range [0,%d)", ci, len(s.results))
	}
	res := s.results[ci]
	out := make(map[string]float64, len(res.EndpointArrivals))
	for key, arr := range res.EndpointArrivals {
		a, ok := arr[level]
		if !ok {
			return nil, fmt.Errorf("incsta: endpoint %s has no %+dσ arrival", key, level)
		}
		out[key] = period - a
	}
	return out, nil
}

// CopyDesign returns deep copies of the engine's current netlist and
// parasitic trees — the inputs a fresh batch analysis needs to reproduce
// the incremental state (property tests, server-side verification).
func (e *Engine) CopyDesign() (*netlist.Netlist, map[string]*rctree.Tree) {
	e.mu.Lock()
	defer e.mu.Unlock()
	trees := make(map[string]*rctree.Tree, len(e.trees))
	for net, t := range e.trees {
		trees[net] = t.Clone()
	}
	return copyNetlist(e.nl), trees
}

// VerifyFull runs a fresh batch analysis of the engine's current design —
// every corner, through the same wavefront engine — and compares it against
// the incremental state. It returns nil when the two agree exactly — the
// consistency guarantee at Epsilon 0 — and a descriptive error on the first
// divergence. Edits are blocked for the duration.
func (e *Engine) VerifyFull(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	fresh, err := sta.NewTimer(e.lib, e.nl, e.trees, e.timer.Options())
	if err != nil {
		return fmt.Errorf("incsta: verify: %w", err)
	}
	results, err := fresh.AnalyzeAll(ctx, sta.AnalyzeOptions{
		Corners:     sta.CornerSet{Corners: e.corners},
		Parallelism: e.par,
	})
	if err != nil {
		return fmt.Errorf("incsta: verify: %w", err)
	}
	levels := e.timer.Options().Levels
	for ci := range e.corners {
		if err := compareResults(results[ci], snap.results[ci], levels); err != nil {
			return fmt.Errorf("corner %s: %w", e.corners[ci].Label(ci), err)
		}
	}
	return nil
}

// compareResults checks a fresh batch result against an incremental one.
func compareResults(fresh, inc *sta.Result, levels []int) error {
	if fresh.Endpoints != inc.Endpoints {
		return fmt.Errorf("incsta: verify: endpoint count %d vs fresh %d", inc.Endpoints, fresh.Endpoints)
	}
	if len(fresh.EndpointArrivals) != len(inc.EndpointArrivals) {
		return fmt.Errorf("incsta: verify: endpoint key count %d vs fresh %d",
			len(inc.EndpointArrivals), len(fresh.EndpointArrivals))
	}
	for key, fa := range fresh.EndpointArrivals {
		ia, ok := inc.EndpointArrivals[key]
		if !ok {
			return fmt.Errorf("incsta: verify: endpoint %s missing from incremental state", key)
		}
		for _, n := range levels {
			if fa[n] != ia[n] {
				return fmt.Errorf("incsta: verify: endpoint %s level %+d: incremental %v vs fresh %v (Δ %g)",
					key, n, ia[n], fa[n], math.Abs(fa[n]-ia[n]))
			}
		}
	}
	for _, n := range levels {
		if fresh.ArrivalQ[n] != inc.ArrivalQ[n] {
			return fmt.Errorf("incsta: verify: critical arrival level %+d: incremental %v vs fresh %v",
				n, inc.ArrivalQ[n], fresh.ArrivalQ[n])
		}
	}
	return comparePaths(fresh.Critical, inc.Critical)
}

// comparePaths checks two critical paths stage by stage, every field.
func comparePaths(fresh, inc *sta.Path) error {
	if fresh.Endpoint != inc.Endpoint || fresh.Launch != inc.Launch {
		return fmt.Errorf("incsta: verify: critical endpoint %s/%s vs fresh %s/%s",
			inc.Endpoint, inc.Launch, fresh.Endpoint, fresh.Launch)
	}
	if len(fresh.Stages) != len(inc.Stages) {
		return fmt.Errorf("incsta: verify: critical path %d stages vs fresh %d",
			len(inc.Stages), len(fresh.Stages))
	}
	for i := range fresh.Stages {
		f, c := &fresh.Stages[i], &inc.Stages[i]
		if field := sta.StageDiff(f, c); field != "" {
			return fmt.Errorf("incsta: verify: stage %d %s/%s/%s@%s vs fresh %s/%s/%s@%s differs in %s",
				i, c.Cell, c.InPin, c.InEdge, c.Net, f.Cell, f.InPin, f.InEdge, f.Net, field)
		}
	}
	return nil
}
