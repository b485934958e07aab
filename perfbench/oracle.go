package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/incsta"
	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/server"
	"repro/internal/timinglib"
)

// slackAnswer is one served slacks query: the version it reports and the
// per-endpoint slacks in ps.
type slackAnswer struct {
	version uint64
	slacks  map[string]float64
}

// servedSlacks asks one instance for the verification slacks of every
// corner.
func servedSlacks(c *client, base, design string) ([]slackAnswer, error) {
	out := make([]slackAnswer, len(corners))
	for ci, cs := range corners {
		raw, err := c.get(base, fmt.Sprintf("/v1/designs/%s/slacks?period_ps=%d&level=%d&corner=%s",
			design, verifyPeriodPs, verifyLevel, cs.Name))
		if err != nil {
			return nil, err
		}
		var body struct {
			Version uint64             `json:"version"`
			Slacks  map[string]float64 `json:"slacks_ps"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			return nil, fmt.Errorf("decode slacks: %w", err)
		}
		out[ci] = slackAnswer{version: body.Version, slacks: body.Slacks}
	}
	return out, nil
}

// compareSlacks requires bit-identical slacks on identical endpoints.
func compareSlacks(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d endpoints, want %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("endpoint %s missing", k)
		}
		if math.Float64bits(g) != math.Float64bits(want[k]) {
			return fmt.Errorf("endpoint %s: %v, want %v", k, g, want[k])
		}
	}
	return nil
}

// ackedEdit is one edit the server acknowledged, with the version it
// reported and its position in send order.
type ackedEdit struct {
	version uint64
	order   int
	req     *server.EditRequest
}

// ackedEdits collects the acknowledged edits of the given phases in the
// order of their reported version. Versions can tie: a handler reads the
// version after its edit applied, when a concurrent edit may have applied
// too. Tied edits target different gates or nets, so they commute.
func ackedEdits(phases ...[]sample) []ackedEdit {
	var out []ackedEdit
	for _, phase := range phases {
		for i := range phase {
			s := &phase[i]
			if s.op.Kind == kindEdit && s.ok() {
				out = append(out, ackedEdit{version: s.Version, order: len(out), req: s.op.edit})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].version < out[j].version })
	return out
}

// replayStats is the oracle replay of the acked edit stream through the
// engine's public API, timed per call.
type replayStats struct {
	newDur      time.Duration
	apply       []time.Duration
	reevaluated int
	cut         int
	allocBytes  float64
	snap        *incsta.Snapshot
	hitRatio    float64
}

// replay builds a fresh engine the way the server's design load does (ε=0,
// same corners, sequential) and applies the acked edits in version order.
func replay(lib *timinglib.File, nl *netlist.Netlist, trees map[string]*rctree.Tree, acked []ackedEdit) (*replayStats, error) {
	st := &replayStats{}
	t0 := time.Now()
	eng, err := incsta.New(lib, nl, trees, incsta.Config{Corners: cornerSet(corners)})
	if err != nil {
		return nil, err
	}
	st.newDur = time.Since(t0)
	before := readRuntime()
	for _, a := range acked {
		t := time.Now()
		rep, err := eng.ApplyEdit(engineEdit(a.req))
		st.apply = append(st.apply, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("acked edit (version %d) rejected on replay: %w", a.version, err)
		}
		st.reevaluated += rep.Reevaluated
		st.cut += rep.Cut
	}
	st.allocBytes = readRuntime().alloc - before.alloc
	st.snap = eng.Snapshot()
	st.hitRatio = eng.Stats().CacheHitRatio()
	return st, nil
}

// oracleSlacks computes the verification slacks from a snapshot with the
// server's arithmetic.
func oracleSlacks(snap *incsta.Snapshot, ci int) (map[string]float64, error) {
	// A variable, not a constant expression: the server rounds period_ps ×
	// 1e-12 in float64, and an exact constant product could differ by an ulp.
	period := float64(verifyPeriodPs)
	sl, err := snap.EndpointSlacksAt(ci, period*1e-12, verifyLevel)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(sl))
	for k, v := range sl {
		out[k] = v * 1e12
	}
	return out, nil
}
