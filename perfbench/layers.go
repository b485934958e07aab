package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/incsta"
	"repro/internal/sta"
	"repro/internal/wal"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits are the end-to-end metrics every pass reports.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"edit_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"edit_capacity_per_s", "1/s"},
	{"recover_s", "s"},
	{"heap_peak_mb", "MB"},
}

// directRepeats is how many times each direct layer call is timed.
const directRepeats = 7

// perLayer turns the traced pass into per-layer metrics, with the untraced
// pass of the same seed as the reference for the tracing overhead.
func perLayer(p *pass, traced, untraced *passResult) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	// server: time inside each instance's Handler(), client-facing requests
	// only (a proxied request's second hop is the owner's share of the first).
	byKind := map[string][]float64{}
	bytesByKind := map[string][]float64{}
	serverDur := map[string]time.Duration{}
	rejected := 0
	users, proxied := 0, 0
	internal := map[string]int{}
	var shipEdit, snapApply []float64
	snapShips, snapBytes := 0, int64(0)
	for _, r := range traced.recs {
		switch {
		case r.internal:
			switch r.kind {
			case "internal.edits":
				shipEdit = append(shipEdit, ms(r.dur))
				internal["edits"]++
			case "internal.replicate":
				snapApply = append(snapApply, ms(r.dur))
				snapShips++
				snapBytes += r.reqBytes
				internal["replicate"]++
			case "internal.health":
				internal["health"]++
			default:
				internal["other"]++
			}
		case r.forwarded:
			proxied++
		default:
			users++
			byKind[r.kind] = append(byKind[r.kind], ms(r.dur))
			bytesByKind[r.kind] = append(bytesByKind[r.kind], float64(r.respBytes))
			serverDur[r.rid] = r.dur
			if r.status == 503 {
				rejected++
			}
		}
	}
	editP50 := quantile(byKind[kindEdit], 0.5)
	put("server.edit_p50_ms", "ms", editP50)
	put("server.edit_p99_ms", "ms", quantile(byKind[kindEdit], 0.99))
	for _, k := range queryKinds {
		put("server.query_p50_ms."+k, "ms", quantile(byKind[k], 0.5))
		put("server.query_p99_ms."+k, "ms", quantile(byKind[k], 0.99))
		put("server.resp_bytes."+k, "bytes", median(bytesByKind[k]))
	}
	put("server.resp_bytes.edit", "bytes", median(bytesByKind[kindEdit]))
	put("server.rejected_503", "count", float64(rejected))
	put("server.same_version_query_ratio", "ratio", sameVersionRatio(traced))

	// incsta: the oracle replay of the acked stream, then queries on its
	// final snapshot, then fresh engines.
	rp := traced.replay
	if rp == nil {
		return nil, fmt.Errorf("no oracle replay to attribute")
	}
	applyMS := durationsMS(rp.apply)
	n := float64(max(len(rp.apply), 1))
	applyP50 := quantile(applyMS, 0.5)
	put("incsta.apply_p50_ms", "ms", applyP50)
	put("incsta.apply_p99_ms", "ms", quantile(applyMS, 0.99))
	put("incsta.reevaluated_per_edit", "gates/edit", float64(rp.reevaluated)/n)
	put("incsta.cut_per_edit", "gates/edit", float64(rp.cut)/n)
	put("incsta.hit_ratio", "ratio", rp.hitRatio)
	put("incsta.alloc_mb_per_edit", "MB/edit", rp.allocBytes/n/(1<<20))
	var paths, slacks, summary []float64
	for i := 0; i < 4*directRepeats; i++ {
		ci := i % len(corners)
		t := time.Now()
		if _, err := rp.snap.WorstPathsAt(ci, 5); err != nil {
			return nil, err
		}
		paths = append(paths, ms(time.Since(t)))
		t = time.Now()
		if _, err := rp.snap.EndpointSlacksAt(ci, verifyPeriodPs*1e-12, verifyLevel); err != nil {
			return nil, err
		}
		slacks = append(slacks, ms(time.Since(t)))
		t = time.Now()
		if _, err := rp.snap.ResultAt(ci); err != nil {
			return nil, err
		}
		_ = rp.snap.Stats()
		summary = append(summary, ms(time.Since(t)))
	}
	put("incsta.paths_ms", "ms", median(paths))
	put("incsta.slacks_ms", "ms", median(slacks))
	put("incsta.summary_ms", "ms", median(summary))
	news := []float64{rp.newDur.Seconds()}
	for i := 1; i < 3; i++ {
		t := time.Now()
		if _, err := incsta.New(p.lib, traced.nl, traced.trees, incsta.Config{Corners: cornerSet(corners)}); err != nil {
			return nil, err
		}
		news = append(news, time.Since(t).Seconds())
	}
	put("incsta.new_s", "s", median(news))

	// sta: compile and one full propagate of every corner.
	compile, propagate, err := staTimes(p, traced)
	if err != nil {
		return nil, err
	}
	put("sta.compile_ms", "ms", compile)
	put("sta.propagate_ms", "ms", propagate)

	// wal: a direct replay of the acked payloads through Log.Append, and the
	// counting filesystem's view of the open-loop window.
	appendUS, err := walAppendTimes(p, traced)
	if err != nil {
		return nil, err
	}
	put("wal.append_us", "us", appendUS)
	perEdit := float64(max(traced.openEdits, 1))
	put("wal.fsyncs_per_edit", "fsync/edit", float64(traced.fsyncs)/perEdit)
	put("wal.fsync_ms", "ms", median(durationsMS(traced.walSyncs)))
	put("wal.bytes_per_edit", "bytes/edit", float64(traced.fsBytes)/perEdit)

	// cluster: replica-side time of the per-edit ship, full snapshot ships,
	// proxy hops and internal request rates over the open-loop window.
	window := traced.openWall.Seconds()
	shipP50 := quantile(shipEdit, 0.5)
	put("cluster.ship_edit_ms", "ms", shipP50)
	put("cluster.snapshot_ships", "count", float64(snapShips))
	put("cluster.snapshot_ship_bytes", "bytes", float64(snapBytes))
	put("cluster.snapshot_apply_ms", "ms", quantile(snapApply, 0.5))
	proxyRatio := 0.0
	if users > 0 {
		proxyRatio = float64(proxied) / float64(users)
	}
	put("cluster.proxy_ratio", "ratio", proxyRatio)
	for _, k := range []string{"edits", "replicate", "health", "other"} {
		put("cluster.internal_req_per_s."+k, "1/s", float64(internal[k])/window)
	}

	// loadgen and runtime.
	put("loadgen.lateness_p99_ms", "ms", latenessP99(traced.open))
	var transport []float64
	for _, phase := range [][]sample{traced.open, traced.readBack} {
		for i := range phase {
			s := &phase[i]
			if d, ok := serverDur[s.RID]; ok && s.ok() {
				transport = append(transport, ms(s.Service-d))
			}
		}
	}
	put("loadgen.transport_ms", "ms", median(transport))
	put("loadgen.steal_repeats", "count", float64(traced.repeated))
	ops := float64(max(len(traced.open), 1))
	put("runtime.gc_per_op", "gc/op", traced.gcCycles/ops)
	put("runtime.alloc_mb_per_op", "MB/op", traced.allocBytes/ops/(1<<20))
	put("failed_ratio", "ratio", float64(traced.failed)/float64(max(traced.attempted, 1)))

	// End-to-end tails of the untraced pass: pooled over its rounds, they
	// vary too much between runs on a shared host to carry a bound.
	for name, v := range untraced.tails {
		put("tail."+name, "ms", v)
	}

	put("trace.overhead_edit_p50_ms", "ms", traced.e2e["edit_p50_ms"]-untraced.e2e["edit_p50_ms"])
	put("trace.overhead_query_p50_ms", "ms", traced.e2e["query_p50_ms"]-untraced.e2e["query_p50_ms"])
	put("recon.unaccounted_edit_ms", "ms", editP50-(appendUS/1000+applyP50+shipP50))
	return m, nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sameVersionRatio is the share of answered queries that repeat a (query,
// version) pair already answered in the same window.
func sameVersionRatio(r *passResult) float64 {
	seen := map[string]bool{}
	total, repeats := 0, 0
	for _, phase := range [][]sample{r.open, r.readBack} {
		for i := range phase {
			s := &phase[i]
			if s.op.Kind == kindEdit || !s.ok() {
				continue
			}
			total++
			k := fmt.Sprintf("%s@%d", s.op.key(), s.Version)
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}
	}
	if total == 0 {
		return 0
	}
	return float64(repeats) / float64(total)
}

// latenessP99 is how late the generator itself ran: for ops whose sender
// was idle and slept until the op was due, the gap between due and sent.
func latenessP99(ss []sample) float64 {
	var late []float64
	for i := range ss {
		if ss[i].Slept {
			late = append(late, ms(ss[i].Late))
		}
	}
	return quantile(late, 0.99)
}

// staTimes times Timer.Compile and one full Graph.Propagate over every
// corner on the initial design.
func staTimes(p *pass, r *passResult) (compile, propagate float64, err error) {
	timer, err := sta.NewTimer(p.lib, r.nl, r.trees, sta.Options{})
	if err != nil {
		return 0, 0, err
	}
	cs := cornerSet(corners).Corners
	var cts, pts []float64
	for i := 0; i < directRepeats; i++ {
		t := time.Now()
		g, err := timer.Compile()
		if err != nil {
			return 0, 0, err
		}
		cts = append(cts, ms(time.Since(t)))
		states := make([]*sta.FlatState, len(cs))
		for ci, c := range cs {
			states[ci] = g.NewState()
			g.InitPI(states[ci], c)
		}
		t = time.Now()
		if _, err := g.Propagate(context.Background(), states, cs, 1); err != nil {
			return 0, 0, err
		}
		pts = append(pts, ms(time.Since(t)))
	}
	return median(cts), median(pts), nil
}

// walAppendTimes appends every acked edit's record to a fresh log under
// fsync always and returns the median Append time in µs.
func walAppendTimes(p *pass, r *passResult) (float64, error) {
	l, _, err := wal.Open(filepath.Join(p.root, "walreplay", "wal.log"), wal.Options{Policy: wal.SyncAlways}, nil)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var us []float64
	for _, a := range r.acked {
		payload, err := json.Marshal(engineEdit(a.req))
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := l.Append(payload); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(us), nil
}
