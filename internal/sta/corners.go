package sta

import "fmt"

// Corner is one operating condition of a multi-corner analysis: a boundary
// input-slew operating point and a parasitic-capacitance derate. The zero
// Corner is the neutral corner — it changes nothing, and every analysis of
// it is bit-identical to a plain single-condition run.
//
// Corners deliberately perturb only the two knobs the paper's evaluation
// sweeps (input transition and load): the moment LUTs and Table-I quantile
// coefficients are functions of (slew, load), so one coefficients file
// serves every corner and a batched traversal can reuse all structural
// intermediates (sink leaves, Elmore delays, X_w, arc lookups) across the
// whole set.
type Corner struct {
	// Name identifies the corner in results and over the query API.
	// Optional for a single-corner run; must be unique within a CornerSet.
	Name string `json:"name,omitempty"`
	// InputSlew overrides Options.InputSlew for this corner (seconds,
	// 0 = keep the analysis default). Per-net Options.InputSlews overrides
	// still win: an SDC-style per-port constraint applies at every corner.
	InputSlew float64 `json:"input_slew,omitempty"`
	// CapScale derates every parasitic capacitance this corner sees — the
	// cell load (total net cap) and the wire Elmore delays, both linear in
	// C. 0 means 1.0 (no derate); 1.1 is a classic slow-extraction corner.
	CapScale float64 `json:"cap_scale,omitempty"`
}

// capScale returns the effective capacitance derate (0 ⇒ 1).
func (c Corner) capScale() float64 {
	if c.CapScale == 0 {
		return 1
	}
	return c.CapScale
}

// scaled applies the corner's capacitance derate to a cap-linear quantity.
// The neutral corner performs no arithmetic at all, so its values keep the
// exact bits of a single-condition analysis.
func (c Corner) scaled(v float64) float64 {
	if s := c.capScale(); s != 1 {
		return v * s
	}
	return v
}

// Label returns the corner's display name, synthesizing "corner<i>" for
// unnamed corners at position i.
func (c Corner) Label(i int) string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("corner%d", i)
}

// validate rejects non-physical corner parameters.
func (c Corner) validate(i int) error {
	if c.InputSlew < 0 {
		return &OptionsError{Field: "Corners",
			Reason: fmt.Sprintf("corner %s: input slew must be non-negative, got %g", c.Label(i), c.InputSlew)}
	}
	if c.CapScale < 0 {
		return &OptionsError{Field: "Corners",
			Reason: fmt.Sprintf("corner %s: cap scale must be non-negative, got %g", c.Label(i), c.CapScale)}
	}
	return nil
}

// CornerSet is the batched multi-corner request: the sigma levels to
// propagate crossed with the operating points to evaluate them at. One
// topological traversal of the design evaluates every corner of the set.
type CornerSet struct {
	// Levels optionally overrides Options.Levels for the whole set (nil =
	// keep). The same validation applies: strictly increasing, containing 0.
	Levels []int `json:"levels,omitempty"`
	// Corners are the operating points. Empty means the single neutral
	// corner (plain single-condition analysis).
	Corners []Corner `json:"corners,omitempty"`
}

// normalized returns the effective corner list: at least the neutral corner.
func (cs CornerSet) normalized() []Corner {
	if len(cs.Corners) == 0 {
		return []Corner{{}}
	}
	return cs.Corners
}

// Validate checks the set: valid per-corner parameters and unique labels.
// Exposed for callers (the incremental engine, the server) that accept
// corner sets from external input and want to reject them up front.
func (cs CornerSet) Validate() error { return cs.validate() }

// validate checks the set: valid per-corner parameters and unique labels.
func (cs CornerSet) validate() error {
	seen := make(map[string]bool, len(cs.Corners))
	for i, c := range cs.Corners {
		if err := c.validate(i); err != nil {
			return err
		}
		l := c.Label(i)
		if seen[l] {
			return &OptionsError{Field: "Corners",
				Reason: fmt.Sprintf("duplicate corner name %q", l)}
		}
		seen[l] = true
	}
	return nil
}

// AnalyzeOptions configures one AnalyzeAll call: which corners to batch and
// how many workers to spread each wavefront level across. The zero value is
// a plain sequential single-condition analysis.
type AnalyzeOptions struct {
	// Corners is the operating-condition batch (empty = neutral corner).
	Corners CornerSet
	// Parallelism is the wavefront worker count: gates within a logic level
	// are independent, so each level is evaluated by up to Parallelism
	// goroutines and committed by a single index-ordered reduction. Results
	// are bit-identical at every value (including 0/1 = sequential).
	Parallelism int
}
