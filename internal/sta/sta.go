// Package sta is the statistical static timing engine: it propagates
// N-sigma arrival times (eq. 10 of the paper) through a gate-level netlist
// with extracted RC parasitics, using only the coefficients file — per-arc
// moment LUTs and Table-I quantile coefficients for cells, Elmore × X_w for
// wires — exactly the flow of the paper's Fig. 1.
package sta

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/stats"
	"repro/internal/timinglib"
	"repro/internal/waveform"
)

// Options configures an analysis.
type Options struct {
	// Levels are the sigma levels to propagate (default stats.SigmaLevels).
	// They must be strictly increasing and include level 0, which drives
	// max-propagation and critical-path selection.
	Levels []int
	// InputSlew is the transition time at primary inputs (default 10 ps).
	InputSlew float64
	// InputSlews overrides InputSlew for individual primary-input nets —
	// the per-port `set_input_transition` of an SDC file, and the state the
	// incremental engine's SetInputSlew edit mutates. Keys must be primary
	// inputs of the analyzed netlist, values positive.
	InputSlews map[string]float64
	// InputDriver is the cell assumed to drive primary-input nets when
	// evaluating wire variability (default INVx4, an FO4 pad driver).
	InputDriver string
	// POLoadCell is the cell assumed to load primary outputs for wire
	// variability (default INVx4).
	POLoadCell string
}

func (o *Options) setDefaults() {
	if len(o.Levels) == 0 {
		o.Levels = stats.SigmaLevels
	}
	if o.InputSlew == 0 {
		o.InputSlew = 10e-12
	}
	if o.InputDriver == "" {
		o.InputDriver = "INVx4"
	}
	if o.POLoadCell == "" {
		o.POLoadCell = "INVx4"
	}
}

// Stage is one link of a timing path: a driving cell arc (absent for the
// primary-input stage) followed by its output net up to the next pin. It
// carries everything baselines and golden Monte-Carlo need to re-evaluate
// the same path.
type Stage struct {
	GateIdx int    // index into the netlist, -1 for the PI stage
	Cell    string // driving cell name ("" for the PI stage)
	InPin   string
	InEdge  waveform.Edge
	InSlew  float64
	Load    float64 // total output-net load seen by the cell (F)

	Net        string
	Tree       *rctree.Tree
	SinkLeaf   int     // leaf toward the next stage (or PO)
	SinkIdx    int     // index of the sink within the net's fanout list
	SinkCell   string  // cell loading that leaf ("" for a PO)
	SinkPin    string  // pin on the sink cell
	SinkPinCap float64 // its pin capacitance (already inside the tree leaf)

	CellMoments stats.Moments   // calibrated moments at (InSlew, Load)
	CellQ       map[int]float64 // T_c(nσ)
	OutSlew     float64         // slew at the tree root
	Elmore      float64         // T_Elmore root→SinkLeaf (includes pin caps)
	XW          float64         // wire variability σ_w/µ_w
	LeafSlew    float64         // slew at the leaf (next stage's InSlew)
}

// StageDiff names the first field in which two stages differ, or returns ""
// when they are bit-identical — the per-stage check of the bit-identity
// comparators. Every field is compared except Tree, a pointer to the net's
// parasitics whose values reach the stage through Elmore, XW, SinkLeaf and
// LeafSlew.
func StageDiff(a, b *Stage) string {
	switch {
	case a.GateIdx != b.GateIdx:
		return "GateIdx"
	case a.Cell != b.Cell:
		return "Cell"
	case a.InPin != b.InPin:
		return "InPin"
	case a.InEdge != b.InEdge:
		return "InEdge"
	case a.InSlew != b.InSlew:
		return "InSlew"
	case a.Load != b.Load:
		return "Load"
	case a.Net != b.Net:
		return "Net"
	case a.SinkLeaf != b.SinkLeaf:
		return "SinkLeaf"
	case a.SinkIdx != b.SinkIdx:
		return "SinkIdx"
	case a.SinkCell != b.SinkCell:
		return "SinkCell"
	case a.SinkPin != b.SinkPin:
		return "SinkPin"
	case a.SinkPinCap != b.SinkPinCap:
		return "SinkPinCap"
	case a.CellMoments != b.CellMoments:
		return "CellMoments"
	case len(a.CellQ) != len(b.CellQ) || (a.CellQ == nil) != (b.CellQ == nil):
		return "CellQ"
	case a.OutSlew != b.OutSlew:
		return "OutSlew"
	case a.Elmore != b.Elmore:
		return "Elmore"
	case a.XW != b.XW:
		return "XW"
	case a.LeafSlew != b.LeafSlew:
		return "LeafSlew"
	}
	for n, q := range a.CellQ {
		if bq, ok := b.CellQ[n]; !ok || bq != q {
			return fmt.Sprintf("CellQ[%+d]", n)
		}
	}
	return ""
}

// Path is an extracted timing path.
type Path struct {
	Launch   waveform.Edge // edge at the primary input
	Endpoint string        // endpoint description (net / PO)
	Stages   []Stage
}

// Quantile evaluates the paper's eq. (10): the nσ path delay is the sum of
// the cells' T_c(nσ) and the wires' T_w(nσ).
func (p *Path) Quantile(n int) float64 {
	var sum float64
	for _, s := range p.Stages {
		if s.CellQ != nil {
			sum += s.CellQ[n]
		}
		sum += (1 + float64(n)*s.XW) * s.Elmore
	}
	return sum
}

// Mean returns the nominal (0σ-free) mean path delay: Σµ_cell + ΣElmore.
func (p *Path) Mean() float64 {
	var sum float64
	for _, s := range p.Stages {
		sum += s.CellMoments.Mean + s.Elmore
	}
	return sum
}

// Result is the outcome of an analysis.
type Result struct {
	// Critical is the path with the largest mean arrival at any endpoint.
	Critical *Path
	// ArrivalQ is the propagated (max-per-level) arrival at the critical
	// endpoint.
	ArrivalQ map[int]float64
	// Endpoints is the number of timed endpoints.
	Endpoints int
	// GatesTimed counts evaluated cell arcs (the runtime driver the paper
	// notes is "in direct proportion to the number of cells").
	GatesTimed int
	// EndpointArrivals holds the propagated arrival quantiles of every
	// timed endpoint, keyed "net/edge" — the input to slack analysis.
	EndpointArrivals map[string]map[int]float64
}

// Timer runs analyses of one netlist + parasitics against a coefficients
// file. It is a thin front over the compiled Graph: every analysis compiles
// once (Compiled) and propagates through analyzeCornersFlat.
type Timer struct {
	lib   *timinglib.File
	nl    *netlist.Netlist
	trees map[string]*rctree.Tree
	opt   Options

	fan map[string][]netlist.Sink
	drv map[string]int
	// pinsOf[gi] is gate gi's input pins in sorted order — structural, like
	// fan/drv, so WithOptions copies share it.
	pinsOf [][]string

	// compiled caches the timer's compiled graph (compile.go). The cache
	// key is the compile inputs — netlist, trees, options, library — so a
	// WithOptions copy starts a fresh cache. Corners are evaluation-time
	// state, not compiled in. Held by pointer so timer copies see one cache.
	compiled *graphCache
}

// graphCache memoizes one compiled graph per (netlist, trees, options)
// generation of a timer.
type graphCache struct {
	mu sync.Mutex
	g  *Graph
}

// NewTimer validates inputs and builds the structural maps.
func NewTimer(lib *timinglib.File, nl *netlist.Netlist, trees map[string]*rctree.Tree, opt Options) (*Timer, error) {
	opt.setDefaults()
	if err := opt.validate(lib, nl); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	t := &Timer{lib: lib, nl: nl, trees: trees, opt: opt,
		fan: nl.FanoutMap(), drv: nl.DriverMap(), compiled: &graphCache{}}
	t.pinsOf = make([][]string, len(nl.Gates))
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		pins := make([]string, 0, len(g.Pins)-1)
		for pin := range g.Pins {
			if pin != "Y" {
				pins = append(pins, pin)
			}
		}
		sort.Strings(pins)
		t.pinsOf[gi] = pins
	}
	for net, sinks := range t.fan {
		if len(sinks) > 0 && trees[net] == nil {
			return nil, fmt.Errorf("sta: net %s has no parasitic tree", net)
		}
	}
	return t, nil
}

// Analyze times the whole design and extracts the critical path.
func (t *Timer) Analyze() (*Result, error) {
	return t.AnalyzeContext(context.Background())
}

// AnalyzeContext is Analyze under a cancelable context: cancellation (or a
// deadline) stops the propagation between gates and returns a classified
// error, so a long analysis of a large design can be aborted promptly.
func (t *Timer) AnalyzeContext(ctx context.Context) (*Result, error) {
	_, _, results, err := t.analyzeCornersFlat(ctx, AnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// levelGroups partitions a topological order into logic levels: a gate's
// level is one past the deepest level among its fanin drivers. Each group is
// internally in `order` order, and concatenating the groups is again a valid
// topological order.
func (t *Timer) levelGroups(order []int) [][]int {
	lv := make([]int, len(t.nl.Gates))
	maxL := 0
	for _, gi := range order {
		l := 0
		for _, net := range t.nl.Gates[gi].InputNets() {
			if di, ok := t.drv[net]; ok && lv[di]+1 > l {
				l = lv[di] + 1
			}
		}
		lv[gi] = l
		if l > maxL {
			maxL = l
		}
	}
	groups := make([][]int, maxL+1)
	for _, gi := range order {
		groups[lv[gi]] = append(groups[lv[gi]], gi)
	}
	return groups
}

// sinkLeaf finds the fanout index and tree leaf of gate gi's pin on net.
func (t *Timer) sinkLeaf(net string, gi int, pin string) (sinkIdx, leaf int, err error) {
	tree := t.trees[net]
	for si, s := range t.fan[net] {
		if s.Gate == gi && s.Pin == pin {
			name := fmt.Sprintf("pin:%s:%s", t.nl.Gates[gi].Name, pin)
			leaf := tree.NodeIndex(name)
			if leaf < 0 {
				return 0, 0, fmt.Errorf("sta: tree %s has no leaf %q", net, name)
			}
			return si, leaf, nil
		}
	}
	return 0, 0, fmt.Errorf("sta: net %s does not feed gate %d pin %s", net, gi, pin)
}

// poLeaf finds the tree leaf of a primary-output sink.
func (t *Timer) poLeaf(net string, sinkIdx int) (int, error) {
	tree := t.trees[net]
	name := fmt.Sprintf("pin:PO%d", sinkIdx)
	leaf := tree.NodeIndex(name)
	if leaf < 0 {
		return 0, fmt.Errorf("sta: tree %s has no PO leaf %q", net, name)
	}
	return leaf, nil
}

// xwFor evaluates the wire variability of a net toward a sink gate (or a PO
// when sinkGate < 0).
func (t *Timer) xwFor(net string, sinkGate int) (float64, error) {
	if t.lib.Wire == nil {
		return 0, nil
	}
	driver := t.opt.InputDriver
	if gi, ok := t.drv[net]; ok {
		driver = t.nl.Gates[gi].Cell
	}
	load := t.opt.POLoadCell
	if sinkGate >= 0 {
		load = t.nl.Gates[sinkGate].Cell
	}
	return t.lib.Wire.XW(driver, load)
}

// WithOptions returns a Timer sharing this one's inputs under different
// (validated) options.
func (t *Timer) WithOptions(opt Options) (*Timer, error) {
	opt.setDefaults()
	if err := opt.validate(t.lib, t.nl); err != nil {
		return nil, err
	}
	cp := *t
	cp.opt = opt
	cp.compiled = &graphCache{}
	return &cp, nil
}

// Netlist returns the analyzed netlist.
func (t *Timer) Netlist() *netlist.Netlist { return t.nl }

// Lib returns the coefficients file the timer evaluates against.
func (t *Timer) Lib() *timinglib.File { return t.lib }

// Options returns the effective (defaulted) analysis options.
func (t *Timer) Options() Options { return t.opt }

// Trees returns the parasitic trees keyed by net.
func (t *Timer) Trees() map[string]*rctree.Tree { return t.trees }
