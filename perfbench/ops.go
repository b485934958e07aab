package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuits"
	"repro/internal/device"
	"repro/internal/incsta"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/server"
	"repro/internal/sta"
	"repro/internal/stdcell"
	"repro/internal/timinglib"
)

// Query and edit kinds, as the benchmark reports them.
const (
	kindEdit    = "edit"
	kindSummary = "summary"
	kindPaths5  = "paths5"
	kindPaths50 = "paths50"
	kindSlacks  = "slacks"
	kindBatch   = "batch"
)

// queryKinds is the query mix. No measured mix of timingd clients exists,
// so each kind gets an equal share: every five queries hold one of each.
var queryKinds = []string{kindSummary, kindPaths5, kindPaths50, kindSlacks, kindBatch}

// slackPeriodsPs are the clock periods slack queries ask about.
var slackPeriodsPs = []float64{1500, 2000, 2500}

// verifyPeriodPs and verifyLevel are the slack query the oracles compare.
const (
	verifyPeriodPs = 2000
	verifyLevel    = 3
)

// op is one request of a workload, fully formed before the run starts.
type op struct {
	Kind   string              `json:"kind"`
	Node   int                 `json:"node"` // index of the instance it is sent to
	Method string              `json:"method"`
	Path   string              `json:"path"` // path and query string
	Body   []byte              `json:"body,omitempty"`
	edit   *server.EditRequest // edits only; not sent to the generator
}

// key identifies the question a query asks (for the repeated-answer ratio).
func (o *op) key() string { return o.Method + " " + o.Path + " " + string(o.Body) }

// designInputs mirrors what the server's design load builds from a circuit
// name: the netlist and its parasitics from the seed-1 placement.
func designInputs(circuit string) (*netlist.Netlist, map[string]*rctree.Tree, error) {
	nl, err := circuits.ByName(circuit)
	if err != nil {
		return nil, nil, err
	}
	par := layout.Default28nm()
	pl, err := layout.Place(nl, par, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("place %s: %w", circuit, err)
	}
	trees, err := layout.Extract(nl, stdcell.NewLibrary(device.Default28nm()), par, pl)
	if err != nil {
		return nil, nil, fmt.Errorf("extract %s: %w", circuit, err)
	}
	return nl, trees, nil
}

// cornerSet converts the wire corners exactly as the server does.
func cornerSet(specs []server.CornerSpec) sta.CornerSet {
	cs := sta.CornerSet{}
	for _, c := range specs {
		cs.Corners = append(cs.Corners, sta.Corner{
			Name: c.Name, InputSlew: c.InputSlewPs * 1e-12, CapScale: c.CapScale,
		})
	}
	return cs
}

// engineEdit converts a wire edit into the engine's record exactly as the
// server does.
func engineEdit(req *server.EditRequest) incsta.Edit {
	return incsta.Edit{
		Op: req.Op, Gate: req.Gate, Strength: req.Strength, Cell: req.Cell,
		Net: req.Net, Slew: req.SlewPs * 1e-12, Tree: req.Tree,
	}
}

// recentWindow is how many preceding edits an edit's target must differ
// from. Two senders can swap adjacent edits in flight; edits on different
// gates and nets commute, so the served state does not depend on the swap.
const recentWindow = 8

// Edits come in deals of editDeal: one resize from each of gateStrata
// strata of gates and one input-slew change from each of inputStrata
// strata of primary inputs, in seeded order. Strata cut the targets by
// fan-out cone size — the most an edit can re-time — so every deal carries
// the same mix of small and large cones and seeds differ only in which
// targets fill it. Phases hold whole deals.
const (
	gateStrata  = 36
	inputStrata = 4
	editDeal    = gateStrata + inputStrata
)

// deck deals the indexes 0..n-1 in shuffled blocks: every n consecutive
// draws hold each index once, so shares are exact and the order is seeded.
type deck struct {
	n    int
	rng  *rand.Rand
	perm []int
	k    int
}

func (d *deck) next() int {
	if d.k%d.n == 0 {
		d.perm = d.rng.Perm(d.n)
	}
	v := d.perm[d.k%d.n]
	d.k++
	return v
}

// coneStrata sorts the gate names and the primary inputs by the size of
// their transitive fan-out cone and cuts each list into equal strata.
func coneStrata(nl *netlist.Netlist) (gates, inputs [][]string) {
	fan := nl.FanoutMap()
	stamp := make([]int, len(nl.Gates))
	visit := 0
	cone := func(net string) int {
		visit++
		n := 0
		stack := []string{net}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range fan[cur] {
				if s.Gate < 0 || stamp[s.Gate] == visit {
					continue
				}
				stamp[s.Gate] = visit
				n++
				stack = append(stack, nl.Gates[s.Gate].Output())
			}
		}
		return n
	}
	type sized struct {
		name string
		cone int
	}
	strata := func(items []sized, k int) [][]string {
		sort.SliceStable(items, func(i, j int) bool { return items[i].cone < items[j].cone })
		out := make([][]string, k)
		for i, it := range items {
			out[i*k/len(items)] = append(out[i*k/len(items)], it.name)
		}
		return out
	}
	gs := make([]sized, len(nl.Gates))
	for i := range nl.Gates {
		gs[i] = sized{nl.Gates[i].Name, cone(nl.Gates[i].Output())}
	}
	is := make([]sized, len(nl.Inputs))
	for i, in := range nl.Inputs {
		is[i] = sized{in, cone(in)}
	}
	return strata(gs, gateStrata), strata(is, inputStrata)
}

// editGen deals seeded edits — resizes, and a tenth input-slew changes —
// and keeps only those a private engine accepts when applied in deal
// order, so the run never sends an edit the engine rejects. The private
// engine has one corner and a coarse cut-off: which edits it accepts does
// not depend on either. Rejections are counted by reason.
type editGen struct {
	eng           *incsta.Engine
	rng           *rand.Rand
	gates, inputs [][]string
	strata        *deck
	strength      map[string]int
	recent        []string
	rejected      map[string]int
}

func newEditGen(lib *timinglib.File, nl *netlist.Netlist, trees map[string]*rctree.Tree, rng *rand.Rand) (*editGen, error) {
	eng, err := incsta.New(lib, nl, trees, incsta.Config{Epsilon: 1})
	if err != nil {
		return nil, fmt.Errorf("validation engine: %w", err)
	}
	g := &editGen{eng: eng, rng: rng, strata: &deck{n: editDeal, rng: rng},
		strength: make(map[string]int, len(nl.Gates)), rejected: map[string]int{}}
	for _, gt := range nl.Gates {
		x := strings.LastIndexByte(gt.Cell, 'x')
		s, err := strconv.Atoi(gt.Cell[x+1:])
		if x < 0 || err != nil {
			return nil, fmt.Errorf("gate %s: cell %q has no strength suffix", gt.Name, gt.Cell)
		}
		g.strength[gt.Name] = s
	}
	g.gates, g.inputs = coneStrata(nl)
	return g, nil
}

// next draws the next edit from the next stratum of the deal, retrying
// within the stratum until the private engine accepts one.
func (g *editGen) next() (*server.EditRequest, error) {
	si := g.strata.next()
	slew := si >= gateStrata
	stratum := g.gates[min(si, gateStrata-1)]
	if slew {
		stratum = g.inputs[si-gateStrata]
	}
	for tries := 0; tries < 1000; tries++ {
		target := stratum[g.rng.IntN(len(stratum))]
		var req server.EditRequest
		if slew {
			req = server.EditRequest{Op: incsta.OpSetInputSlew, Net: target, SlewPs: float64(10 + g.rng.IntN(71))}
		} else {
			s := stdcell.Strengths[g.rng.IntN(len(stdcell.Strengths))]
			if s == g.strength[target] {
				continue
			}
			req = server.EditRequest{Op: incsta.OpResize, Gate: target, Strength: s}
		}
		if slices.Contains(g.recent, target) {
			continue
		}
		if _, err := g.eng.ApplyEdit(engineEdit(&req)); err != nil {
			var ee *incsta.EditError
			if !errors.As(err, &ee) {
				return nil, fmt.Errorf("validation engine: %w", err)
			}
			g.rejected[rejectionReason(ee)]++
			continue
		}
		if !slew {
			g.strength[target] = req.Strength
		}
		g.recent = append(g.recent, target)
		if len(g.recent) > recentWindow {
			g.recent = g.recent[1:]
		}
		return &req, nil
	}
	return nil, fmt.Errorf("no acceptable edit in a stratum of %d targets", len(stratum))
}

// rejectionReason strips the numbers and names from a rejection so equal
// causes count together.
func rejectionReason(ee *incsta.EditError) string {
	if strings.Contains(ee.Reason, "capacitance negative") {
		return ee.Op + ": pin-cap delta would make leaf capacitance negative"
	}
	return ee.Op + ": " + ee.Reason
}

// stream deals a workload's ops in send order: edits at an exact share
// (every 1/share-th op), queries dealt from the query mix in shuffled
// blocks of one of each kind, and edits and queries each dealt round the
// nodes. Ops are generated on demand, between timed segments.
type stream struct {
	design                       string
	share                        float64
	rng                          *rand.Rand
	kinds, editNodes, queryNodes *deck
	edits                        *editGen // nil for a query-only stream
	i                            int
}

func newStream(design string, nodes int, share float64, edits *editGen, rng *rand.Rand) *stream {
	return &stream{design: design, share: share, rng: rng, edits: edits,
		kinds:     &deck{n: len(queryKinds), rng: rng},
		editNodes: &deck{n: nodes, rng: rng}, queryNodes: &deck{n: nodes, rng: rng}}
}

// take returns the next n ops.
func (s *stream) take(n int) ([]*op, error) {
	out := make([]*op, 0, n)
	for ; len(out) < n; s.i++ {
		if int(float64(s.i+1)*s.share) > int(float64(s.i)*s.share) {
			ed, err := s.edits.next()
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(ed)
			if err != nil {
				return nil, err
			}
			out = append(out, &op{Kind: kindEdit, Node: s.editNodes.next(), Method: http.MethodPost,
				Path: "/v1/designs/" + s.design + "/edits", Body: body, edit: ed})
			continue
		}
		o, err := queryOp(s.design, queryKinds[s.kinds.next()], s.rng)
		if err != nil {
			return nil, err
		}
		o.Node = s.queryNodes.next()
		out = append(out, o)
	}
	return out, nil
}

func randomCorner(rng *rand.Rand) string { return corners[rng.IntN(len(corners))].Name }

func queryOp(design, kind string, rng *rand.Rand) (*op, error) {
	base := "/v1/designs/" + design
	o := &op{Kind: kind, Method: http.MethodGet}
	switch kind {
	case kindSummary:
		o.Path = base + "?corner=" + randomCorner(rng)
	case kindPaths5:
		o.Path = base + "/paths?k=5&corner=" + randomCorner(rng)
	case kindPaths50:
		o.Path = base + "/paths?k=50&corner=" + slowCorner
	case kindSlacks:
		o.Path = fmt.Sprintf("%s/slacks?period_ps=%g&level=3&corner=%s",
			base, slackPeriodsPs[rng.IntN(len(slackPeriodsPs))], randomCorner(rng))
	case kindBatch:
		qs := make([]server.BatchQuery, 8)
		for i := range qs {
			q := server.BatchQuery{Corner: randomCorner(rng)}
			switch i % 3 {
			case 0:
				q.Kind = "summary"
			case 1:
				q.Kind, q.K = "paths", 5
			default:
				q.Kind, q.PeriodPs = "slacks", slackPeriodsPs[rng.IntN(len(slackPeriodsPs))]
			}
			qs[i] = q
		}
		body, err := json.Marshal(server.BatchRequest{Queries: qs})
		if err != nil {
			return nil, err
		}
		o.Method, o.Path, o.Body = http.MethodPost, base+"/batch", body
	}
	return o, nil
}
