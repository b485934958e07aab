package repro

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/libsynth"
)

// TestFacadeEndToEnd exercises the public API the examples are written
// against: characterise → fit → query, plus benchmark generation,
// extraction, and the coefficients-file round trip.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 220

	arc := Arc{Cell: "INVx1", Pin: "A", InEdge: Rising}
	char, err := CharacterizeArc(cfg, arc,
		[]float64{10e-12, 60e-12, 200e-12, 400e-12},
		[]float64{0.4e-15, 1.2e-15, 3e-15, 6e-15},
		80, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitArc(char)
	if err != nil {
		t.Fatal(err)
	}
	q0 := model.Quantile(0, 50e-12, 1e-15)
	q3 := model.Quantile(3, 50e-12, 1e-15)
	if !(q3 > q0 && q0 > 0) {
		t.Fatalf("facade quantiles: q0=%v q3=%v", q0, q3)
	}

	// Coefficients file round trip through the facade.
	f := NewTimingFile(cfg)
	f.AddArc(model)
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTimingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Arc("INVx1", "A", Rising)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quantile(3, 50e-12, 1e-15) != q3 {
		t.Fatal("reloaded model evaluates differently")
	}
}

func TestFacadeBenchmarksAndParasitics(t *testing.T) {
	cfg := DefaultConfig()
	nl, err := GenerateBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	trees, err := ExtractParasitics(cfg, nl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no parasitic trees")
	}
	for _, net := range nl.Inputs {
		if trees[net] == nil {
			t.Fatalf("input net %s lacks a tree", net)
		}
		break
	}
}

func TestFacadeHelpers(t *testing.T) {
	if WireQuantile(10e-12, 0.1, 3) != 13e-12 {
		t.Fatal("WireQuantile broken")
	}
	if CellName("NAND2", 4) != "NAND2x4" {
		t.Fatal("CellName broken")
	}
	cfg := DefaultConfig()
	if len(LibraryCells(cfg)) != 16 {
		t.Fatal("library cell list wrong")
	}
	if Default28nmTech().Vdd != 0.6 {
		t.Fatal("default supply should be the paper's 0.6 V")
	}
	if Reference.Slew != 10e-12 || Reference.Load != 0.4e-15 {
		t.Fatal("reference operating point drifted from the paper's")
	}
}

// TestFacadeV1Constructors exercises the redesigned context-first
// constructors: functional options, multi-corner batched analysis, the
// incremental engine and typed-error surfacing.
func TestFacadeV1Constructors(t *testing.T) {
	ctx := context.Background()
	lib := libsynth.File()
	nl, err := GenerateBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	trees, err := ExtractParasitics(DefaultConfig(), nl, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Missing parasitics is a typed options error, caught up front.
	var oe *OptionsError
	if _, err := NewTimer(ctx, lib, nl); !errors.As(err, &oe) {
		t.Fatalf("NewTimer without parasitics: %v", err)
	}

	timer, err := NewTimer(ctx, lib, nl, WithParasitics(trees))
	if err != nil {
		t.Fatal(err)
	}
	results, err := timer.AnalyzeAll(ctx, AnalyzeOptions{
		Corners: CornerSet{Corners: []Corner{
			{Name: "typ"}, {Name: "slow", CapScale: 1.2},
		}},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("batched analysis returned %d results", len(results))
	}
	if results[1].ArrivalQ[0] <= results[0].ArrivalQ[0] {
		t.Fatal("cap-derated corner should be slower")
	}

	a, err := timer.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	// Incremental engine through the new constructor, with a typed edit
	// rejection.
	eng, err := NewIncrementalEngine(ctx, lib, nl,
		WithParasitics(trees), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var ee *EditError
	if _, err := eng.ResizeCell("no-such-gate", 4); !errors.As(err, &ee) {
		t.Fatalf("bad edit should be an *EditError: %v", err)
	}
	if eng.Snapshot().Result().ArrivalQ[0] != a.ArrivalQ[0] {
		t.Fatal("engine initial state diverges from fresh analysis")
	}

	// A canceled context aborts construction.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := NewTimer(canceled, lib, nl, WithParasitics(trees)); err == nil {
		t.Fatal("canceled context accepted")
	}
}
