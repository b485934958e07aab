package resilience

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// MarshalJSON serialises a Class as its name so reports stay readable.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON parses a Class name (unknown names map to ClassUnknown).
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for cand := ClassUnknown; cand <= ClassInput; cand++ {
		if cand.String() == s {
			*c = cand
			return nil
		}
	}
	*c = ClassUnknown
	return nil
}

// SampleFailure records one quarantined Monte-Carlo sample.
type SampleFailure struct {
	// Index is the sample index within its Monte-Carlo run.
	Index int `json:"index"`
	// Attempts is how many attempts were made before quarantining.
	Attempts int    `json:"attempts"`
	Class    Class  `json:"class"`
	Err      string `json:"err,omitempty"`
}

// PointReport summarises fault handling at one characterisation grid point.
type PointReport struct {
	Slew float64 `json:"slew"`
	Load float64 `json:"load"`
	// Samples is the requested sample count; Survivors is how many made it
	// into the moment computation.
	Samples   int `json:"samples"`
	Survivors int `json:"survivors"`
	// Retried counts samples that failed at least once but eventually
	// succeeded.
	Retried     int             `json:"retried,omitempty"`
	Quarantined []SampleFailure `json:"quarantined,omitempty"`
}

// Degraded reports whether the point's moments were computed over fewer
// samples than requested.
func (p *PointReport) Degraded() bool { return p.Survivors < p.Samples }

// String renders the point as "S=… C=…" for degraded-point listings.
func (p *PointReport) String() string {
	return fmt.Sprintf("S=%.3g C=%.3g (%d/%d survived)", p.Slew, p.Load, p.Survivors, p.Samples)
}

// ArcReport summarises fault handling of one arc's characterisation.
type ArcReport struct {
	Arc string `json:"arc"`
	// Skipped means the arc was restored from a checkpoint (resume) and
	// not re-simulated.
	Skipped bool `json:"skipped,omitempty"`
	// Retried and Quarantined aggregate over grid points.
	Retried     int `json:"retried,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Points holds the degraded grid points only (clean points carry no
	// fault information worth persisting).
	Points []PointReport `json:"points,omitempty"`
	// Wall is the characterisation wall time of this arc.
	Wall time.Duration `json:"wall,omitempty"`
}

// AddPoint folds one grid point into the arc report, retaining the point
// itself only when it is degraded or saw retries.
func (a *ArcReport) AddPoint(p PointReport) {
	a.Retried += p.Retried
	a.Quarantined += len(p.Quarantined)
	if p.Degraded() || p.Retried > 0 {
		a.Points = append(a.Points, p)
	}
}

// DegradedPoints lists the degraded grid points of the arc.
func (a *ArcReport) DegradedPoints() []string {
	var out []string
	for i := range a.Points {
		if a.Points[i].Degraded() {
			out = append(out, a.Points[i].String())
		}
	}
	return out
}

// Report is the structured outcome of a fault-tolerant pipeline run. It is
// safe for concurrent Add* calls.
type Report struct {
	mu sync.Mutex
	// Arcs holds one entry per characterised (or skipped) arc.
	Arcs []*ArcReport `json:"arcs"`
	// Wall is the total pipeline wall time (set by the driver).
	Wall time.Duration `json:"wall,omitempty"`
}

// AddArc appends an arc report.
func (r *Report) AddArc(a *ArcReport) {
	if r == nil || a == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Arcs = append(r.Arcs, a)
}

// Totals aggregates the report: characterised arcs, resumed (skipped) arcs,
// retried samples, quarantined samples, and degraded grid points.
func (r *Report) Totals() (chars, skipped, retried, quarantined, degraded int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.Arcs {
		if a.Skipped {
			skipped++
			continue
		}
		chars++
		retried += a.Retried
		quarantined += a.Quarantined
		for i := range a.Points {
			if a.Points[i].Degraded() {
				degraded++
			}
		}
	}
	return
}

// Summary renders a one-paragraph human-readable digest.
func (r *Report) Summary() string {
	chars, skipped, retried, quarantined, degraded := r.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "resilience: %d arcs characterized", chars)
	if skipped > 0 {
		fmt.Fprintf(&b, ", %d resumed from checkpoint", skipped)
	}
	fmt.Fprintf(&b, "; %d samples retried, %d quarantined, %d degraded grid points", retried, quarantined, degraded)
	if r != nil && r.Wall > 0 {
		fmt.Fprintf(&b, " (wall %v)", r.Wall.Round(time.Millisecond))
	}
	if degraded > 0 {
		r.mu.Lock()
		var lines []string
		for _, a := range r.Arcs {
			for _, p := range a.DegradedPoints() {
				lines = append(lines, fmt.Sprintf("  degraded: %s %s", a.Arc, p))
			}
		}
		r.mu.Unlock()
		sort.Strings(lines)
		b.WriteString("\n")
		b.WriteString(strings.Join(lines, "\n"))
	}
	return b.String()
}
