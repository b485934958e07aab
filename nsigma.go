// Package repro is a from-scratch Go reproduction of "A Novel Delay
// Calibration Method Considering Interaction between Cells and Wires"
// (Jin et al., DATE 2023): an N-sigma statistical delay model for
// near-threshold timing, covering moment-based cell-delay quantiles
// (Table I), operating-condition moment calibration (eqs. 1–3), the
// Pelgrom-rooted wire variability model X_w = X_FI·r_FI + X_FO·r_FO
// (eqs. 5–9), and quantile-summed path analysis (eq. 10) — together with
// the transistor-level Monte-Carlo substrate that plays the paper's
// HSPICE + TSMC 28 nm golden flow.
//
// This root package is a facade over the implementation packages:
//
//   - characterise a library and fit the models (Characterize* / Fit*),
//   - persist and reload the coefficients file (TimingFile),
//   - run statistical timing on a netlist (NewTimer → Analyze),
//   - regenerate the paper's tables and figures (cmd/repro, package
//     internal/experiments).
//
// The quickstart example (examples/quickstart) walks the full flow on one
// inverter arc; DESIGN.md maps every paper artefact to its package.
package repro

import (
	"context"

	"repro/internal/charlib"
	"repro/internal/circuits"
	"repro/internal/device"
	"repro/internal/incsta"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/nsigma"
	"repro/internal/rctree"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/stdcell"
	"repro/internal/timinglib"
	"repro/internal/waveform"
	"repro/internal/wire"
)

// Core model types.
type (
	// Arc identifies a timing arc: cell, switching input pin, input edge.
	Arc = charlib.Arc
	// ArcChar is the Monte-Carlo characterisation of an arc over a grid.
	ArcChar = charlib.ArcChar
	// ArcModel is the fitted N-sigma model of one arc.
	ArcModel = nsigma.ArcModel
	// Moments are the first four moments [µ, σ, γ, κ] of a delay sample.
	Moments = stats.Moments
	// TimingFile is the serialisable coefficients file (paper Fig. 5).
	TimingFile = timinglib.File
	// WireCalibration holds the fitted X_FI/X_FO coefficients (eqs. 5–7).
	WireCalibration = wire.Calibration
	// Tree is an interconnect RC tree (Elmore: eq. 4).
	Tree = rctree.Tree
	// Netlist is a gate-level combinational circuit.
	Netlist = netlist.Netlist
	// Timer runs N-sigma STA over a netlist and its parasitics.
	Timer = sta.Timer
	// Path is an extracted critical path; Path.Quantile is eq. 10.
	Path = sta.Path
	// Edge is a transition direction (Rising/Falling).
	Edge = waveform.Edge
	// CharConfig bundles technology + variation + simulator knobs for
	// characterisation runs.
	CharConfig = charlib.Config
	// STAOptions configures an analysis.
	STAOptions = sta.Options
	// IncrementalEngine keeps a design's timing state resident and
	// re-propagates only the downstream cone of each ECO edit
	// (package internal/incsta; served over HTTP by cmd/timingd).
	IncrementalEngine = incsta.Engine
	// IncrementalConfig tunes an IncrementalEngine (options + epsilon).
	IncrementalConfig = incsta.Config
	// TimingSnapshot is an immutable, lock-free-queryable view of an
	// IncrementalEngine at one edit version.
	TimingSnapshot = incsta.Snapshot
	// Corner is one operating condition of a multi-corner analysis.
	Corner = sta.Corner
	// CornerSet is a batch of operating corners evaluated in one traversal.
	CornerSet = sta.CornerSet
	// AnalyzeOptions configures one Timer.AnalyzeAll call: the corner batch
	// and the wavefront worker count.
	AnalyzeOptions = sta.AnalyzeOptions
)

// Typed errors the facade's constructors and engines return. Callers match
// them with errors.As to distinguish bad input from internal failures.
type (
	// EditError is the typed rejection of a malformed ECO edit (the engine
	// state is untouched when one is returned).
	EditError = incsta.EditError
	// ParseError locates a syntax error in ISCAS85 .bench netlist text.
	ParseError = netlist.ParseError
	// SPEFError locates a syntax error in SPEF parasitics text.
	SPEFError = rctree.SPEFError
	// OptionsError reports an invalid analysis option or corner parameter.
	OptionsError = sta.OptionsError
)

// Edge directions.
const (
	Rising  = waveform.Rising
	Falling = waveform.Falling
)

// Reference is the paper's reference operating condition
// (S_ref = 10 ps, C_ref = 0.4 fF).
var Reference = charlib.Reference

// DefaultConfig returns the characterisation config over the default
// synthetic 28-nm-class technology at 0.6 V.
func DefaultConfig() *CharConfig { return charlib.DefaultConfig() }

// CharacterizeArc runs Monte-Carlo characterisation of one arc over the
// given slew/load axes with n samples per grid point.
func CharacterizeArc(cfg *CharConfig, arc Arc, slews, loads []float64, n int, seed uint64) (*ArcChar, error) {
	return cfg.CharacterizeArc(context.Background(), arc, slews, loads, n, seed)
}

// CharacterizeArcContext is CharacterizeArc under a cancelable context:
// canceling ctx aborts the Monte-Carlo run promptly with a wrapped
// context error.
func CharacterizeArcContext(ctx context.Context, cfg *CharConfig, arc Arc, slews, loads []float64, n int, seed uint64) (*ArcChar, error) {
	return cfg.CharacterizeArc(ctx, arc, slews, loads, n, seed)
}

// FitArc fits the N-sigma model (moment LUT, Table-I quantile coefficients,
// slew surface) from a characterisation.
func FitArc(char *ArcChar) (*ArcModel, error) { return nsigma.FitArc(char) }

// DefaultSlewGrid and DefaultLoadGrid span the paper's Fig. 4 sweeps.
func DefaultSlewGrid() []float64 { return charlib.DefaultSlewGrid() }

// DefaultLoadGrid returns the default load axis (0.1–6 fF).
func DefaultLoadGrid() []float64 { return charlib.DefaultLoadGrid() }

// NewTimingFile returns an empty coefficients file for cfg's library.
func NewTimingFile(cfg *CharConfig) *TimingFile { return timinglib.New(cfg.Lib) }

// LoadTimingFile reads a coefficients file from disk.
func LoadTimingFile(path string) (*TimingFile, error) { return timinglib.Load(path) }

// GenerateBenchmark builds one of the paper's Table-III benchmark circuits
// by name (c432…c7552, ADD, SUB, MUL, DIV).
func GenerateBenchmark(name string) (*Netlist, error) { return circuits.ByName(name) }

// ExtractParasitics places the netlist and synthesises one RC tree per net
// (the IC-Compiler/SPEF role; see internal/layout).
func ExtractParasitics(cfg *CharConfig, nl *Netlist, seed uint64) (map[string]*Tree, error) {
	par := layout.Default28nm()
	pl, err := layout.Place(nl, par, seed)
	if err != nil {
		return nil, err
	}
	return layout.Extract(nl, cfg.Lib, par, pl)
}

// Option configures NewTimer or NewIncrementalEngine. The zero set of
// options is valid as long as parasitics are supplied (WithParasitics).
type Option func(*builderConfig)

// builderConfig accumulates the functional options of both constructors.
type builderConfig struct {
	trees       map[string]*Tree
	opt         STAOptions
	corners     CornerSet
	parallelism int
	epsilon     float64
}

// WithParasitics supplies the per-net RC trees (from ExtractParasitics or a
// SPEF reader). Required by both constructors.
func WithParasitics(trees map[string]*Tree) Option {
	return func(c *builderConfig) { c.trees = trees }
}

// WithSTAOptions sets the analysis options (sigma levels, input slews,
// wire-variability fallbacks).
func WithSTAOptions(opt STAOptions) Option {
	return func(c *builderConfig) { c.opt = opt }
}

// WithCorners batches operating corners: an incremental engine carries one
// timing state per corner through every edit. Ignored by NewTimer: pass
// corners to Timer.AnalyzeAll in AnalyzeOptions.Corners.
func WithCorners(cs CornerSet) Option {
	return func(c *builderConfig) { c.corners = cs }
}

// WithParallelism sets the incremental engine's wavefront worker count (0/1
// = sequential; results are bit-identical at every value). Ignored by
// NewTimer: pass AnalyzeOptions.Parallelism to Timer.AnalyzeAll.
func WithParallelism(n int) Option {
	return func(c *builderConfig) { c.parallelism = n }
}

// WithEpsilon sets the incremental early-termination cutoff in seconds
// (0 = bit-exact snapshots). Ignored by NewTimer.
func WithEpsilon(eps float64) Option {
	return func(c *builderConfig) { c.epsilon = eps }
}

func applyOptions(opts []Option) (*builderConfig, error) {
	c := &builderConfig{}
	for _, o := range opts {
		o(c)
	}
	if c.trees == nil {
		return nil, &OptionsError{Field: "Parasitics",
			Reason: "no parasitics: pass WithParasitics(trees)"}
	}
	return c, nil
}

// NewIncrementalEngine builds an incremental timing engine over a design:
// one full analysis up front, then per-edit re-propagation of only the
// affected cone, with snapshots bit-identical to a fresh analysis at
// epsilon 0. The context bounds the construction-time full analysis.
//
//	eng, err := repro.NewIncrementalEngine(ctx, lib, nl,
//	    repro.WithParasitics(trees),
//	    repro.WithCorners(repro.CornerSet{Corners: []repro.Corner{{Name: "slow", CapScale: 1.1}}}),
//	    repro.WithParallelism(4))
func NewIncrementalEngine(ctx context.Context, lib *TimingFile, nl *Netlist, opts ...Option) (*IncrementalEngine, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return incsta.New(lib, nl, c.trees, IncrementalConfig{
		Options:     c.opt,
		Epsilon:     c.epsilon,
		Corners:     c.corners,
		Parallelism: c.parallelism,
	})
}

// NewTimer builds an N-sigma STA engine over a netlist, its parasitics and
// a coefficients file. WithCorners, WithParallelism and WithEpsilon are
// ignored by NewTimer: pass corners and parallelism per call in the
// AnalyzeOptions of AnalyzeAll. Plain Analyze is a sequential
// neutral-corner run.
//
//	timer, err := repro.NewTimer(ctx, lib, nl, repro.WithParasitics(trees))
//	res, err := timer.Analyze()
//	all, err := timer.AnalyzeAll(ctx, repro.AnalyzeOptions{
//	    Corners:     repro.CornerSet{Corners: []repro.Corner{{Name: "slow", CapScale: 1.1}}},
//	    Parallelism: 4})
func NewTimer(ctx context.Context, lib *TimingFile, nl *Netlist, opts ...Option) (*Timer, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sta.NewTimer(lib, nl, c.trees, c.opt)
}

// WireQuantile evaluates eq. (9): T_w(nσ) = (1 + n·X_w)·T_Elmore.
func WireQuantile(elmore, xw float64, n int) float64 { return wire.Quantile(elmore, xw, n) }

// Default28nmTech returns the synthetic technology card.
func Default28nmTech() *device.Tech { return device.Default28nm() }

// LibraryCells lists the synthetic standard-cell names.
func LibraryCells(cfg *CharConfig) []string { return cfg.Lib.Names() }

// CellName re-exports the canonical cell naming helper (e.g. NAND2x4).
func CellName(kind string, strength int) string {
	return stdcell.CellName(stdcell.Kind(kind), strength)
}
