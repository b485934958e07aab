package incsta

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/stdcell"
)

// batchCorners is a four-corner batch with distinct input slews and cap
// derates, so every corner's plane carries different numbers.
var batchCorners = []sta.Corner{
	{Name: "typ"},
	{Name: "fastin", InputSlew: 20e-12},
	{Name: "slowext", CapScale: 1.15},
	{Name: "worst", InputSlew: 120e-12, CapScale: 1.3},
}

// randomBatchScript derives a reproducible edit script over a compiled
// benchmark mixing every edit kind with no-op resizes and edits the engine
// must reject: unknown gates, non-positive slews, pin-mismatched swaps and
// resizes that would drive a parasitic leaf capacitance negative.
func randomBatchScript(t *testing.T, eng *Engine, seed int64, n int) []Edit {
	t.Helper()
	nl, trees := eng.CopyDesign()
	rng := rand.New(rand.NewSource(seed))
	strengths := stdcell.Strengths
	kind := func(gi int) string {
		c := nl.Gates[gi].Cell
		return c[:strings.LastIndexByte(c, 'x')]
	}
	var eds []Edit
	for len(eds) < n {
		gi := rng.Intn(len(nl.Gates))
		g := nl.Gates[gi]
		switch rng.Intn(9) {
		case 0, 1:
			eds = append(eds, Edit{Op: OpResize, Gate: g.Name, Strength: strengths[rng.Intn(len(strengths))]})
		case 2:
			// Resized twice to the same strength: the second is a no-op that
			// still advances the version.
			s := strengths[rng.Intn(len(strengths))]
			eds = append(eds,
				Edit{Op: OpResize, Gate: g.Name, Strength: s},
				Edit{Op: OpResize, Gate: g.Name, Strength: s})
		case 3:
			eds = append(eds, Edit{Op: OpSwap, Gate: g.Name,
				Cell: fmt.Sprintf("%sx%d", kind(gi), strengths[rng.Intn(len(strengths))])})
		case 4:
			in := nl.Inputs[rng.Intn(len(nl.Inputs))]
			eds = append(eds, Edit{Op: OpSetInputSlew, Net: in, Slew: (5 + 120*rng.Float64()) * 1e-12})
		case 5:
			net := g.Output()
			tr := trees[net].Clone()
			scale := 0.5 + 1.5*rng.Float64()
			for j := range tr.Nodes {
				tr.Nodes[j].R *= scale
				tr.Nodes[j].C *= scale
			}
			eds = append(eds, Edit{Op: OpSetNetParasitics, Net: net, Tree: tr})
		case 6:
			eds = append(eds,
				Edit{Op: OpResize, Gate: "no-such-gate", Strength: 2},
				Edit{Op: OpSetInputSlew, Net: nl.Inputs[0], Slew: -1e-12},
				Edit{Op: "unknown_op"})
		case 7:
			// A swap to a cell with a different pin set.
			other := "INVx1"
			if kind(gi) == "INV" {
				other = "NAND2x1"
			}
			eds = append(eds, Edit{Op: OpSwap, Gate: g.Name, Cell: other})
		case 8:
			// Upsize the gate, zero its input leaf's capacitance, then
			// downsize: the negative pin-cap delta is rejected.
			pin := "A"
			net := g.Pins[pin]
			tr := trees[net].Clone()
			leaf := tr.NodeIndex(fmt.Sprintf("pin:%s:%s", g.Name, pin))
			if leaf < 0 {
				t.Fatalf("tree %s has no leaf for %s/%s", net, g.Name, pin)
			}
			tr.Nodes[leaf].C = 0
			eds = append(eds,
				Edit{Op: OpResize, Gate: g.Name, Strength: strengths[len(strengths)-1]},
				Edit{Op: OpSetNetParasitics, Net: net, Tree: tr},
				Edit{Op: OpResize, Gate: g.Name, Strength: strengths[0]})
		}
	}
	return eds
}

// statsSansPublishes drops the one counter a batch legitimately changes.
func statsSansPublishes(s Stats) Stats {
	s.Publishes = 0
	return s
}

// TestApplyBatchMatchesSequential is the batch's equivalence property: the
// same script applied as batches (one whole batch, and random chunks) and
// edit by edit through ApplyEdit leaves bit-identical results on every
// corner, the same Version and Stats, and the same per-edit Report or
// rejection — at Parallelism 1 and 4.
func TestApplyBatchMatchesSequential(t *testing.T) {
	_, _, _, build := namePools(t, "c432")
	for _, par := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("par=%d/seed=%d", par, seed), func(t *testing.T) {
				cfg := Config{Corners: sta.CornerSet{Corners: batchCorners}, Parallelism: par}
				seq := build(cfg)
				eds := randomBatchScript(t, seq, seed, 80)

				want := make([]EditResult, len(eds))
				accepted, negCap := 0, 0
				for i, ed := range eds {
					rep, err := seq.ApplyEdit(ed)
					want[i] = EditResult{Report: rep, Err: err}
					switch {
					case err == nil:
						accepted++
					case strings.Contains(err.Error(), "capacitance negative"):
						negCap++
					}
				}
				if accepted == 0 || negCap == 0 {
					t.Fatalf("script has %d accepted and %d negative-leaf rejections; want both", accepted, negCap)
				}

				whole := build(cfg)
				got, err := whole.ApplyBatch(eds, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBatchMatches(t, "whole", seq, whole, want, got)
				if p := whole.Snapshot().Stats().Publishes; p != 2 {
					t.Fatalf("whole batch: %d publishes, want 2 (construction + batch)", p)
				}
				if p := seq.Snapshot().Stats().Publishes; p != uint64(1+accepted) {
					t.Fatalf("sequential: %d publishes, want %d", p, 1+accepted)
				}

				chunked := build(cfg)
				rng := rand.New(rand.NewSource(seed))
				got = got[:0]
				for lo := 0; lo < len(eds); {
					hi := lo + 1 + rng.Intn(12)
					if hi > len(eds) {
						hi = len(eds)
					}
					res, err := chunked.ApplyBatch(eds[lo:hi], nil)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, res...)
					lo = hi
				}
				assertBatchMatches(t, "chunked", seq, chunked, want, got)
			})
		}
	}
}

// assertBatchMatches compares a batch-applied engine and its per-edit
// results against the sequential reference.
func assertBatchMatches(t *testing.T, label string, seq, bat *Engine, want, got []EditResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results for %d edits", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if (w.Err == nil) != (g.Err == nil) {
			t.Fatalf("%s edit %d: sequential err %v, batch err %v", label, i, w.Err, g.Err)
		}
		if w.Err != nil {
			if _, ok := g.Err.(*EditError); !ok {
				t.Fatalf("%s edit %d: rejection is %T, want *EditError", label, i, g.Err)
			}
			if w.Err.Error() != g.Err.Error() {
				t.Fatalf("%s edit %d: rejection %q, want %q", label, i, g.Err, w.Err)
			}
		}
		if !reflect.DeepEqual(w.Report, g.Report) {
			t.Fatalf("%s edit %d: report %+v, want %+v", label, i, g.Report, w.Report)
		}
	}
	ws, gs := seq.Snapshot(), bat.Snapshot()
	if ws.Version() != gs.Version() {
		t.Fatalf("%s: version %d, want %d", label, gs.Version(), ws.Version())
	}
	if statsSansPublishes(ws.Stats()) != statsSansPublishes(gs.Stats()) {
		t.Fatalf("%s: stats %+v, want %+v", label, gs.Stats(), ws.Stats())
	}
	levels := seq.Options().Levels
	for ci := range batchCorners {
		wr, _ := ws.ResultAt(ci)
		gr, _ := gs.ResultAt(ci)
		if err := compareResults(wr, gr, levels); err != nil {
			t.Fatalf("%s corner %s: %v", label, batchCorners[ci].Name, err)
		}
	}
}

// TestReportVersions pins the per-edit versions: every applied edit, no-op
// included, takes the next version; rejections take none.
func TestReportVersions(t *testing.T) {
	eng, _ := newTestEngine(t, diamond(), Config{})
	res, err := eng.ApplyBatch([]Edit{
		{Op: OpResize, Gate: "U1", Strength: 4},
		{Op: OpResize, Gate: "nope", Strength: 2},
		{Op: OpResize, Gate: "U1", Strength: 4}, // no-op
		{Op: OpSetInputSlew, Net: "in", Slew: 30e-12},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantVersions := []uint64{2, 0, 3, 4}
	for i, r := range res {
		var v uint64
		if r.Report != nil {
			v = r.Report.Version
		}
		if v != wantVersions[i] {
			t.Fatalf("edit %d: version %d, want %d (err %v)", i, v, wantVersions[i], r.Err)
		}
	}
	if v := eng.Snapshot().Version(); v != 4 {
		t.Fatalf("snapshot version %d, want 4", v)
	}
	if rep, err := eng.ResizeCell("U2", 2); err != nil || rep.Version != 5 {
		t.Fatalf("ResizeCell: version %v, err %v; want 5", rep, err)
	}
	// An all-rejected batch publishes nothing.
	before := eng.Snapshot()
	if _, err := eng.ApplyBatch([]Edit{{Op: OpResize, Gate: "nope", Strength: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot() != before {
		t.Fatal("an all-rejected batch published a snapshot")
	}
}

// TestApplyBatchCommitStep: the commit step sees every outcome before the
// publish, a failing commit publishes nothing, an all-rejected batch never
// calls it, and NewAt continues the version from the seq it is given.
func TestApplyBatchCommitStep(t *testing.T) {
	eng, _ := newTestEngine(t, diamond(), Config{})
	before := eng.Snapshot()
	calls := 0
	errCommit := errors.New("commit failed")
	res, err := eng.ApplyBatch([]Edit{{Op: OpResize, Gate: "U1", Strength: 4}}, func(r []EditResult) error {
		calls++
		if len(r) != 1 || r[0].Err != nil || r[0].Report.Version != 2 {
			t.Fatalf("commit saw %+v", r)
		}
		if eng.Snapshot() != before {
			t.Fatal("published before the commit step")
		}
		return errCommit
	})
	if !errors.Is(err, errCommit) || calls != 1 || res[0].Report == nil {
		t.Fatalf("ApplyBatch = %v after %d commits, want the commit error", err, calls)
	}
	if eng.Snapshot() != before {
		t.Fatal("a failed commit published a snapshot")
	}
	if _, err := eng.ApplyBatch([]Edit{{Op: OpResize, Gate: "nope", Strength: 2}}, func([]EditResult) error {
		t.Fatal("commit called for an all-rejected batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	nl := diamond()
	lib := fullLib()
	at, err := NewAt(lib, nl, buildTrees(nl, lib), Config{}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if v := at.Snapshot().Version(); v != 42 {
		t.Fatalf("NewAt(41) published version %d, want 42", v)
	}
	if rep, err := at.ResizeCell("U1", 4); err != nil || rep.Version != 43 {
		t.Fatalf("first edit after NewAt(41): %+v, %v; want version 43", rep, err)
	}
}
