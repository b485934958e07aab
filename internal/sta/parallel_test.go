package sta

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/libsynth"
	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/timinglib"
)

// benchTrees builds one flat RC tree per net with the layout extractor's
// leaf-naming convention and per-sink resistances that vary by position, so
// corner cap-derates shift Elmore delays differently per sink.
func benchTrees(nl *netlist.Netlist, lib *timinglib.File) map[string]*rctree.Tree {
	fan := nl.FanoutMap()
	out := map[string]*rctree.Tree{}
	for net, sinks := range fan {
		t := rctree.NewTree(net, 0.05e-15)
		for si, s := range sinks {
			var name string
			var pc float64
			if s.Gate >= 0 {
				name = fmt.Sprintf("pin:%s:%s", nl.Gates[s.Gate].Name, s.Pin)
				pc, _ = lib.PinCap(nl.Gates[s.Gate].Cell, s.Pin)
			} else {
				name = fmt.Sprintf("pin:PO%d", si)
				pc = 0.8e-15
			}
			t.MustAddNode(name, 0, 40+10*float64(si), 0.3e-15+pc)
		}
		out[net] = t
	}
	return out
}

// benchTimer builds a timer over one ISCAS85-style benchmark with the full
// synthetic coefficients library.
func benchTimer(t testing.TB, circuit string) *Timer {
	t.Helper()
	nl, err := circuits.ByName(circuit)
	if err != nil {
		t.Fatal(err)
	}
	circuits.SizeByFanout(nl)
	lib := libsynth.File()
	timer, err := NewTimer(lib, nl, benchTrees(nl, lib), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return timer
}

// assertResultsIdentical compares two results bitwise: every arrival
// quantile, every endpoint, and every field of every critical-path stage.
func assertResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Endpoints != got.Endpoints {
		t.Fatalf("%s: endpoints %d vs %d", label, got.Endpoints, want.Endpoints)
	}
	if want.GatesTimed != got.GatesTimed {
		t.Fatalf("%s: gates timed %d vs %d", label, got.GatesTimed, want.GatesTimed)
	}
	for n, v := range want.ArrivalQ {
		if got.ArrivalQ[n] != v {
			t.Fatalf("%s: critical arrival %+dσ: %v vs %v", label, n, got.ArrivalQ[n], v)
		}
	}
	if len(want.EndpointArrivals) != len(got.EndpointArrivals) {
		t.Fatalf("%s: endpoint key count %d vs %d", label,
			len(got.EndpointArrivals), len(want.EndpointArrivals))
	}
	for key, wa := range want.EndpointArrivals {
		ga, ok := got.EndpointArrivals[key]
		if !ok {
			t.Fatalf("%s: endpoint %s missing", label, key)
		}
		for n, v := range wa {
			if ga[n] != v {
				t.Fatalf("%s: endpoint %s %+dσ: %v vs %v", label, key, n, ga[n], v)
			}
		}
	}
	w, g := want.Critical, got.Critical
	if w.Endpoint != g.Endpoint || w.Launch != g.Launch || len(w.Stages) != len(g.Stages) {
		t.Fatalf("%s: critical %s/%s (%d stages) vs %s/%s (%d stages)", label,
			g.Endpoint, g.Launch, len(g.Stages), w.Endpoint, w.Launch, len(w.Stages))
	}
	for i := range w.Stages {
		ws, gs := &w.Stages[i], &g.Stages[i]
		if f := StageDiff(ws, gs); f != "" {
			t.Fatalf("%s: critical stage %d (%s/%s/%s@%s vs %s/%s/%s@%s) differs in %s", label, i,
				gs.Cell, gs.InPin, gs.InEdge, gs.Net, ws.Cell, ws.InPin, ws.InEdge, ws.Net, f)
		}
	}
	for n := range want.ArrivalQ {
		if w.Quantile(n) != g.Quantile(n) {
			t.Fatalf("%s: critical path %+dσ: %v vs %v", label, n, g.Quantile(n), w.Quantile(n))
		}
	}
}

// TestParallelBitIdenticalToSequential is the scheduler's determinism
// property: for several circuits, corner batches and worker counts, a
// parallel wavefront analysis returns results bit-identical to the
// sequential one.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	cornerSets := map[string]CornerSet{
		"neutral": {},
		"multi": {Corners: []Corner{
			{Name: "typ"},
			{Name: "fastin", InputSlew: 20e-12},
			{Name: "slowext", CapScale: 1.15},
			{Name: "worst", InputSlew: 120e-12, CapScale: 1.3},
		}},
	}
	ctx := context.Background()
	for _, circuit := range []string{"c432", "c1355", "c1908"} {
		timer := benchTimer(t, circuit)
		for csName, cs := range cornerSets {
			seq, err := timer.AnalyzeAll(ctx, AnalyzeOptions{Corners: cs, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", circuit, csName, err)
			}
			for _, par := range []int{2, 3, 4, 8} {
				got, err := timer.AnalyzeAll(ctx, AnalyzeOptions{Corners: cs, Parallelism: par})
				if err != nil {
					t.Fatalf("%s/%s par=%d: %v", circuit, csName, par, err)
				}
				if len(got) != len(seq) {
					t.Fatalf("%s/%s par=%d: %d results vs %d", circuit, csName, par, len(got), len(seq))
				}
				for ci := range seq {
					assertResultsIdentical(t,
						fmt.Sprintf("%s/%s par=%d corner=%d", circuit, csName, par, ci),
						seq[ci], got[ci])
				}
			}
		}
	}
}

// TestNeutralBatchMatchesPlainAnalyze pins the compatibility contract: the
// zero AnalyzeOptions path through the batched engine returns exactly what
// the classic sequential Analyze returns.
func TestNeutralBatchMatchesPlainAnalyze(t *testing.T) {
	timer := benchTimer(t, "c1908")
	plain, err := timer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := timer.AnalyzeAll(context.Background(), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 {
		t.Fatalf("neutral batch returned %d results", len(batch))
	}
	assertResultsIdentical(t, "neutral", plain, batch[0])
}

// TestCornerSemantics checks the corner knobs do what they claim: a cap
// derate strictly slows the design, an input-slew corner only changes
// boundary transitions, and per-net overrides beat the corner operating
// point.
func TestCornerSemantics(t *testing.T) {
	timer := benchTimer(t, "c432")
	ctx := context.Background()
	res, err := timer.AnalyzeAll(ctx, AnalyzeOptions{Corners: CornerSet{Corners: []Corner{
		{Name: "typ"},
		{Name: "derated", CapScale: 1.25},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res[1].ArrivalQ[0], res[0].ArrivalQ[0]; got <= want {
		t.Fatalf("cap-derated corner should be slower: %v vs %v", got, want)
	}

	// A per-net InputSlews override must win over the corner's InputSlew at
	// that net: pin every input, and the corner operating point becomes a
	// no-op.
	nl := timer.Netlist()
	opt := timer.Options()
	opt.InputSlews = map[string]float64{}
	for _, in := range nl.Inputs {
		opt.InputSlews[in] = 33e-12
	}
	pinned, err := timer.WithOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	both, err := pinned.AnalyzeAll(ctx, AnalyzeOptions{Corners: CornerSet{Corners: []Corner{
		{Name: "typ"},
		{Name: "fastin", InputSlew: 5e-12},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "pinned-slew", both[0], both[1])
}

// TestCornerSetValidation rejects non-physical corners and duplicate names
// up front through AnalyzeAll.
func TestCornerSetValidation(t *testing.T) {
	timer := benchTimer(t, "c432")
	ctx := context.Background()
	bad := []CornerSet{
		{Corners: []Corner{{InputSlew: -1e-12}}},
		{Corners: []Corner{{CapScale: -0.5}}},
		{Corners: []Corner{{Name: "x"}, {Name: "x"}}},
	}
	for i, cs := range bad {
		if _, err := timer.AnalyzeAll(ctx, AnalyzeOptions{Corners: cs}); err == nil {
			t.Fatalf("bad corner set %d accepted", i)
		}
	}
}

// TestParallelCancellation checks a canceled context aborts a parallel
// analysis with a context error instead of hanging or panicking.
func TestParallelCancellation(t *testing.T) {
	timer := benchTimer(t, "c1355")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := timer.AnalyzeAll(ctx, AnalyzeOptions{Parallelism: 4}); err == nil {
		t.Fatal("canceled analysis returned no error")
	}
}
