package sta

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// This file pins the correctness anchor of the data-oriented eval core: the
// compiled SoA engine must reproduce the map-based reference engine of
// legacy_test.go bit for bit — every result, every propagated state field, every backtracked path
// — across circuits, corner sets and worker counts; and its steady-state
// per-gate loop must not allocate.

// assertStateMapsIdentical compares two propagated states bitwise, net by
// net and field by field.
func assertStateMapsIdentical(t *testing.T, label string, want, got StateMap) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: state has %d nets, want %d", label, len(got), len(want))
	}
	for net, ws := range want {
		gs, ok := got[net]
		if !ok {
			t.Fatalf("%s: state missing net %s", label, net)
		}
		for ei := 0; ei < 2; ei++ {
			if !reflect.DeepEqual(ws[ei], gs[ei]) {
				t.Fatalf("%s: net %s edge %d:\n got %+v\nwant %+v", label, net, ei, gs[ei], ws[ei])
			}
		}
	}
}

// TestCompiledMatchesLegacyBitwise is the compiled-vs-legacy equivalence
// property: for several circuits, corner sets and worker counts, the
// compiled engine returns results, states and top-k paths bit-identical to
// the reference engine in legacy_test.go.
func TestCompiledMatchesLegacyBitwise(t *testing.T) {
	cornerSets := map[string]CornerSet{
		"neutral": {},
		"multi": {Corners: []Corner{
			{Name: "typ"},
			{Name: "fastin", InputSlew: 20e-12},
			{Name: "slowext", CapScale: 1.15},
			{Name: "worst", InputSlew: 120e-12, CapScale: 1.3},
		}},
		"levels": {Levels: []int{-3, 0, 3}, Corners: []Corner{
			{Name: "typ"}, {Name: "derated", CapScale: 1.2},
		}},
	}
	ctx := context.Background()
	for _, circuit := range []string{"c432", "c1355", "c1908"} {
		timer := benchTimer(t, circuit)
		for csName, cs := range cornerSets {
			wantRes, wantStates, err := timer.analyzeCornersLegacy(ctx, AnalyzeOptions{Corners: cs})
			if err != nil {
				t.Fatalf("%s/%s legacy: %v", circuit, csName, err)
			}
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s par=%d", circuit, csName, par)
				g, gotStates, gotRes, err := timer.AnalyzeAllFlat(ctx, AnalyzeOptions{Corners: cs, Parallelism: par})
				if err != nil {
					t.Fatalf("%s compiled: %v", label, err)
				}
				if len(gotRes) != len(wantRes) {
					t.Fatalf("%s: %d results vs %d", label, len(gotRes), len(wantRes))
				}
				for ci := range wantRes {
					cl := fmt.Sprintf("%s corner=%d", label, ci)
					assertResultsIdentical(t, cl, wantRes[ci], gotRes[ci])
					assertStateMapsIdentical(t, cl, wantStates[ci], stateMapOf(g, gotStates[ci]))
				}
			}
		}
	}
}

// TestTopPathsFlatMatchesLegacy compares the compiled top-k extraction
// (flat-state ranking + array backtracking) against the reference engine's
// TopPathsFrom over the same analysis.
func TestTopPathsFlatMatchesLegacy(t *testing.T) {
	timer := benchTimer(t, "c1355")
	ctx := context.Background()
	corner := Corner{Name: "worst", InputSlew: 40e-12, CapScale: 1.1}
	opts := AnalyzeOptions{Corners: CornerSet{Corners: []Corner{corner}}}

	wantRes, wantStates, err := timer.analyzeCornersLegacy(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := timer.withCorner(corner)
	if err != nil {
		t.Fatal(err)
	}
	wantPaths, err := ct.TopPathsFrom(wantStates[0], wantRes[0], 12)
	if err != nil {
		t.Fatal(err)
	}

	g, flat, gotRes, err := timer.AnalyzeAllFlat(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotPaths, err := g.TopPathsFlat(flat[0], corner, gotRes[0], 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPaths) != len(wantPaths) {
		t.Fatalf("got %d paths, want %d", len(gotPaths), len(wantPaths))
	}
	for i := range wantPaths {
		if !reflect.DeepEqual(wantPaths[i], gotPaths[i]) {
			t.Fatalf("path %d diverges:\n got %+v\nwant %+v", i, gotPaths[i], wantPaths[i])
		}
	}
}

// TestCompiledEvalLoopZeroAlloc is the allocation regression guard for the
// steady-state eval loop: with the graph compiled, the states seeded and
// the per-worker scratch/output buffers in hand, sweeping every gate of the
// design under a 4-corner batch must allocate nothing.
func TestCompiledEvalLoopZeroAlloc(t *testing.T) {
	timer := benchTimer(t, "c432")
	corners := []Corner{
		{Name: "typ"},
		{Name: "fastin", InputSlew: 20e-12},
		{Name: "slowext", CapScale: 1.15},
		{Name: "worst", InputSlew: 120e-12, CapScale: 1.3},
	}
	g, err := timer.Compile()
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*FlatState, len(corners))
	for ci, c := range corners {
		states[ci] = g.NewState()
		g.InitPI(states[ci], c)
	}
	sc := g.NewScratch(len(corners))
	out := g.NewGateOut(len(corners))
	sweep := func() {
		for _, gi := range g.order {
			g.EvalGateInto(int(gi), states, corners, sc, out)
			g.CommitGate(int(gi), states, out)
		}
	}
	sweep() // settle the states so re-sweeps are pure steady state
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Fatalf("steady-state eval sweep allocates %.1f objects per run, want 0", allocs)
	}
}
