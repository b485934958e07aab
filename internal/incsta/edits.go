package incsta

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rctree"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// EditError is the typed rejection of a malformed ECO edit. Validation runs
// before any state is touched, so a rejected edit leaves the engine exactly
// as it was.
type EditError struct {
	Op     string // "resize", "swap", "set-net-parasitics", "set-input-slew"
	Target string // gate or net name
	Reason string
}

// Error implements error.
func (e *EditError) Error() string {
	if e.Target == "" {
		return fmt.Sprintf("incsta: %s: %s", e.Op, e.Reason)
	}
	return fmt.Sprintf("incsta: %s %q: %s", e.Op, e.Target, e.Reason)
}

// Edit op names — the Op values of the serialized Edit record and the
// EditError.Op tags of their rejections.
const (
	OpResize           = "resize"
	OpSwap             = "swap"
	OpSetNetParasitics = "set_net_parasitics"
	OpSetInputSlew     = "set_input_slew"
)

// Edit is the stable serialized form of one ECO edit — the record a
// write-ahead log appends and replays. Op selects the edit; the other
// fields mirror the arguments of the corresponding typed method
// (ResizeCell, SwapCell, SetNetParasitics, SetInputSlew). All quantities
// are engine-native SI units (Slew in seconds).
//
// The encoding is JSON with omitted zero fields; replaying the same Edit
// value against the same engine state is deterministic, which is what makes
// a logged edit history a faithful reconstruction of the engine.
type Edit struct {
	Op       string       `json:"op"`
	Gate     string       `json:"gate,omitempty"`
	Strength int          `json:"strength,omitempty"`
	Cell     string       `json:"cell,omitempty"`
	Net      string       `json:"net,omitempty"`
	Slew     float64      `json:"slew,omitempty"` // seconds
	Tree     *rctree.Tree `json:"tree,omitempty"`
}

// EditResult is one edit's outcome within ApplyBatch: its Report when the
// edit was applied, or its rejection.
type EditResult struct {
	Report *Report
	Err    error
}

// ApplyBatch applies eds in order under one hold of the engine lock and
// publishes one snapshot at the end — WAL recovery's replay entry point.
// Each edit gets the Report or rejection ApplyEdit would have returned for
// it in the same sequence, and the published Version and Stats (Publishes
// aside) equal what that sequence leaves: applied edits, no-ops included,
// each advance the version; rejections leave the engine untouched. The
// snapshots of intermediate versions are never built. A batch in which
// every edit is rejected publishes nothing.
//
// The returned error is a publication failure: the edits are then applied
// to the engine's state (the next publication carries them) but the
// current snapshot still shows the state before the batch.
func (e *Engine) ApplyBatch(eds []Edit) ([]EditResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]EditResult, len(eds))
	applied := false
	for i, ed := range eds {
		rep, err := e.applyLocked(ed)
		out[i] = EditResult{Report: rep, Err: err}
		applied = applied || err == nil
	}
	if !applied {
		return out, nil
	}
	return out, e.publishLocked()
}

// ApplyEdit applies one serialized Edit and publishes its snapshot: a
// one-edit ApplyBatch, and the path every typed edit method takes.
// Rejections are *EditError values, so a replayer can skip exactly the
// edits the original submission rejected.
func (e *Engine) ApplyEdit(ed Edit) (*Report, error) {
	res, err := e.ApplyBatch([]Edit{ed})
	if err != nil {
		return nil, err
	}
	return res[0].Report, res[0].Err
}

// applyLocked dispatches one edit to its unpublished body. Called with e.mu
// held.
func (e *Engine) applyLocked(ed Edit) (*Report, error) {
	switch ed.Op {
	case OpResize:
		return e.resizeLocked(ed.Gate, ed.Strength)
	case OpSwap:
		return e.swapLocked("swap", ed.Gate, ed.Cell)
	case OpSetNetParasitics:
		return e.setNetParasiticsLocked(ed.Net, ed.Tree)
	case OpSetInputSlew:
		return e.setInputSlewLocked(ed.Net, ed.Slew)
	default:
		return nil, &EditError{Op: ed.Op, Reason: "unknown edit op"}
	}
}

// Report describes what one edit's re-propagation did.
type Report struct {
	Op string
	// Seeded is the size of the initial dirty frontier (gates + PIs).
	Seeded int
	// Reevaluated counts gate evaluations performed.
	Reevaluated int
	// Cut counts gates whose recomputed state matched the cache within
	// epsilon, terminating their downstream cone.
	Cut int
	// Endpoints counts endpoint entries re-transported.
	Endpoints int
	// Version is the snapshot version this edit produced: the version
	// ApplyEdit publishes, or the one the edit reached inside a batch.
	Version uint64
}

// ResizeCell swaps a gate to a different drive strength of the same kind
// ("INVx1" → "INVx4"), following the library's "<kind>x<strength>" naming.
func (e *Engine) ResizeCell(gate string, strength int) (*Report, error) {
	return e.ApplyEdit(Edit{Op: OpResize, Gate: gate, Strength: strength})
}

// SwapCell replaces a gate's cell with another library cell exposing the
// same input pins (e.g. a NAND2 of a different VT flavour or strength).
func (e *Engine) SwapCell(gate, newCell string) (*Report, error) {
	return e.ApplyEdit(Edit{Op: OpSwap, Gate: gate, Cell: newCell})
}

func (e *Engine) resizeLocked(gate string, strength int) (*Report, error) {
	if strength <= 0 {
		return nil, &EditError{Op: "resize", Target: gate,
			Reason: fmt.Sprintf("strength must be positive, got %d", strength)}
	}
	gi, ok := e.idx.Gate(gate)
	if !ok {
		return nil, &EditError{Op: "resize", Target: gate, Reason: "unknown gate"}
	}
	cell := e.nl.Gates[gi].Cell
	x := strings.LastIndexByte(cell, 'x')
	if x <= 0 {
		return nil, &EditError{Op: "resize", Target: gate,
			Reason: fmt.Sprintf("cell %q has no x<strength> suffix", cell)}
	}
	if _, err := strconv.Atoi(cell[x+1:]); err != nil {
		return nil, &EditError{Op: "resize", Target: gate,
			Reason: fmt.Sprintf("cell %q has no x<strength> suffix", cell)}
	}
	return e.swapLocked("resize", gate, fmt.Sprintf("%sx%d", cell[:x], strength))
}

func (e *Engine) swapLocked(op, gate, newCell string) (*Report, error) {
	gi, ok := e.idx.Gate(gate)
	if !ok {
		return nil, &EditError{Op: op, Target: gate, Reason: "unknown gate"}
	}
	g := &e.nl.Gates[gi]
	oldCell := g.Cell
	if newCell == oldCell {
		e.stats.Edits++
		e.version++
		return &Report{Op: op, Version: e.version}, nil
	}

	// Validate everything before touching state: the new cell must exist,
	// expose every input pin with arcs for both edges, and be covered by
	// the wire-variability calibration.
	info, err := e.lib.Cell(newCell)
	if err != nil {
		return nil, &EditError{Op: op, Target: gate,
			Reason: fmt.Sprintf("unknown cell %q", newCell)}
	}
	pins := make([]string, 0, len(g.Pins)-1)
	for p := range g.Pins {
		if p != "Y" {
			pins = append(pins, p)
		}
	}
	sort.Strings(pins)
	for _, p := range pins {
		if _, ok := info.PinCaps[p]; !ok {
			return nil, &EditError{Op: op, Target: gate,
				Reason: fmt.Sprintf("cell %q has no input pin %q", newCell, p)}
		}
		for _, edge := range []waveform.Edge{waveform.Falling, waveform.Rising} {
			if _, err := e.lib.Arc(newCell, p, edge); err != nil {
				return nil, &EditError{Op: op, Target: gate,
					Reason: fmt.Sprintf("cell %q has no %s arc on pin %q", newCell, edge, p)}
			}
		}
	}
	if e.lib.Wire != nil {
		if _, err := e.lib.Wire.XW(newCell, newCell); err != nil {
			return nil, &EditError{Op: op, Target: gate,
				Reason: fmt.Sprintf("cell %q not covered by the wire calibration: %v", newCell, err)}
		}
	}

	// Stage the input-net tree updates (pin-cap deltas at this gate's
	// leaves) so validation failures leave the engine untouched.
	type treePatch struct {
		net  string
		tree *rctree.Tree
	}
	var patches []treePatch
	staged := make(map[string]*rctree.Tree)
	for _, p := range pins {
		net := g.Pins[p]
		oldPC, err := e.lib.PinCap(oldCell, p)
		if err != nil {
			return nil, &EditError{Op: op, Target: gate,
				Reason: fmt.Sprintf("current cell %q: %v", oldCell, err)}
		}
		newPC := info.PinCaps[p]
		delta := newPC - oldPC
		if delta == 0 {
			continue
		}
		src, ok := staged[net]
		if !ok {
			src = e.trees[net].Clone()
			staged[net] = src
			patches = append(patches, treePatch{net: net, tree: src})
		}
		leafName := fmt.Sprintf("pin:%s:%s", g.Name, p)
		leaf := src.NodeIndex(leafName)
		if leaf < 0 {
			return nil, &EditError{Op: op, Target: gate,
				Reason: fmt.Sprintf("tree %s has no leaf %q", net, leafName)}
		}
		if src.Nodes[leaf].C+delta < 0 {
			return nil, &EditError{Op: op, Target: gate,
				Reason: fmt.Sprintf("pin-cap delta %g would make leaf %q capacitance negative", delta, leafName)}
		}
		src.Nodes[leaf].C += delta
	}

	// Apply to a copy-on-write clone of the compiled graph first: a clone
	// failure (it re-resolves arcs, pin caps and X_w) leaves the engine —
	// netlist, trees and graph alike — exactly as it was.
	g2 := e.graph.CloneForEdit()
	if err := g2.SetGateCell(gi, newCell); err != nil {
		return nil, &EditError{Op: op, Target: gate, Reason: err.Error()}
	}
	for _, p := range patches {
		id, ok := g2.NetID(p.net)
		if !ok {
			return nil, &EditError{Op: op, Target: gate,
				Reason: fmt.Sprintf("net %s not compiled", p.net)}
		}
		if err := g2.SetNetTree(id, p.tree); err != nil {
			return nil, &EditError{Op: op, Target: gate, Reason: err.Error()}
		}
	}

	// Commit: swap the cell, install the patched trees and the new graph,
	// seed the frontier.
	g.Cell = newCell
	e.graph = g2
	d := newDirtySet()
	d.gates[gi] = struct{}{}
	e.touchNet(d, g.Output())
	for _, p := range patches {
		e.trees[p.net] = p.tree
		e.touchNet(d, p.net)
	}
	return e.commitEdit(op, d), nil
}

// SetNetParasitics re-binds a net to a new RC tree — the ECO that follows a
// re-route or a fresh extraction. The tree must be structurally valid and
// carry a leaf for every sink pin of the net (the extractor's
// "pin:<gate>:<pin>" / "pin:PO<i>" convention).
func (e *Engine) SetNetParasitics(net string, tree *rctree.Tree) (*Report, error) {
	return e.ApplyEdit(Edit{Op: OpSetNetParasitics, Net: net, Tree: tree})
}

func (e *Engine) setNetParasiticsLocked(net string, tree *rctree.Tree) (*Report, error) {
	if !e.idx.HasNet(net) {
		return nil, &EditError{Op: "set-net-parasitics", Target: net, Reason: "unknown net"}
	}
	if tree == nil {
		return nil, &EditError{Op: "set-net-parasitics", Target: net, Reason: "nil tree"}
	}
	if err := tree.Validate(); err != nil {
		return nil, &EditError{Op: "set-net-parasitics", Target: net, Reason: err.Error()}
	}
	for si, s := range e.idx.Fanout(net) {
		var leafName string
		if s.Gate >= 0 {
			leafName = fmt.Sprintf("pin:%s:%s", e.nl.Gates[s.Gate].Name, s.Pin)
		} else {
			leafName = fmt.Sprintf("pin:PO%d", si)
		}
		if tree.NodeIndex(leafName) < 0 {
			return nil, &EditError{Op: "set-net-parasitics", Target: net,
				Reason: fmt.Sprintf("tree has no leaf %q", leafName)}
		}
	}

	owned := tree.Clone()
	owned.Net = net
	g2 := e.graph.CloneForEdit()
	id, ok := g2.NetID(net)
	if !ok {
		return nil, &EditError{Op: "set-net-parasitics", Target: net, Reason: "net not compiled"}
	}
	if err := g2.SetNetTree(id, owned); err != nil {
		return nil, &EditError{Op: "set-net-parasitics", Target: net, Reason: err.Error()}
	}
	e.trees[net] = owned
	e.graph = g2
	d := newDirtySet()
	e.touchNet(d, net)
	return e.commitEdit("set-net-parasitics", d), nil
}

// SetInputSlew overrides the input transition of one primary-input net (the
// per-port set_input_transition ECO). The override lands in
// sta.Options.InputSlews, so a fresh analysis with the engine's Options
// sees the identical boundary condition.
func (e *Engine) SetInputSlew(net string, slew float64) (*Report, error) {
	return e.ApplyEdit(Edit{Op: OpSetInputSlew, Net: net, Slew: slew})
}

func (e *Engine) setInputSlewLocked(net string, slew float64) (*Report, error) {
	if !e.idx.IsInput(net) {
		return nil, &EditError{Op: "set-input-slew", Target: net, Reason: "not a primary input"}
	}
	if slew <= 0 {
		return nil, &EditError{Op: "set-input-slew", Target: net,
			Reason: fmt.Sprintf("slew must be positive, got %g", slew)}
	}
	opt := e.timer.Options()
	slews := make(map[string]float64, len(opt.InputSlews)+1)
	for k, v := range opt.InputSlews {
		slews[k] = v
	}
	slews[net] = slew
	opt.InputSlews = slews
	timer, err := e.timer.WithOptions(opt)
	if err != nil {
		return nil, &EditError{Op: "set-input-slew", Target: net, Reason: err.Error()}
	}
	g2 := e.graph.CloneForEdit()
	if err := g2.SetOptions(opt); err != nil {
		return nil, &EditError{Op: "set-input-slew", Target: net, Reason: err.Error()}
	}
	e.timer = timer
	e.graph = g2

	d := newDirtySet()
	d.inputs[net] = struct{}{}
	return e.commitEdit("set-input-slew", d), nil
}

// Options returns the engine's effective analysis options (including
// accumulated input-slew overrides) — what a fresh analysis needs to
// reproduce the engine's state.
func (e *Engine) Options() sta.Options {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.timer.Options()
}
