package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// routePatterns is the fixed per-route label set of the request metrics —
// exactly the patterns New registers. Anything else (an unknown path, a
// probing client, a typo) lands in the shared "other" series, so the scrape
// cardinality is bounded no matter what URLs are thrown at the server.
var routePatterns = []string{
	"GET /healthz",
	"GET /v1/healthz",
	"GET /v1/readyz",
	"GET /metrics",
	"GET /v1/debug/slow",
	"GET /v1/designs",
	"PUT /v1/designs/{name}",
	"DELETE /v1/designs/{name}",
	"GET /v1/designs/{name}",
	"GET /v1/designs/{name}/gates",
	"GET /v1/designs/{name}/paths",
	"GET /v1/designs/{name}/slacks",
	"POST /v1/designs/{name}/edits",
	"POST /v1/designs/{name}/batch",
	// Cluster mode: replication ingest, introspection, and the forwarding
	// pseudo-routes (a forwarded request is counted by method, not by the
	// owner-side pattern it resolves to).
	"POST /v1/internal/replicate",
	"POST /v1/internal/edits",
	"POST /v1/internal/lease/claim",
	"POST /v1/internal/lease/adopt",
	"POST /v1/internal/members",
	"GET /v1/internal/health",
	"GET /v1/cluster/members",
	"POST /v1/cluster/members",
	"DELETE /v1/cluster/members/{peer...}",
	"GET /v1/cluster/designs/{name}",
	"forward GET",
	"forward PUT",
	"forward POST",
	"forward DELETE",
}

// metrics instruments the server on the process-wide obs registry:
// bounded-cardinality per-route request counters and latency histograms.
// The scrape renders the whole registry — so solver, characterisation and
// incremental-STA metrics from the rest of the pipeline appear alongside —
// followed by the per-design section read live from the engines.
type metrics struct {
	requests *obs.CounterVec
	latency  *obs.HistogramVec

	// Cluster-originated internal traffic (heartbeats, snapshot replication —
	// anything carrying cluster.InternalHeader) counts here instead, so the
	// per-route user-request series are not polluted by machine chatter.
	clusterRequests *obs.CounterVec
	clusterLatency  *obs.HistogramVec
}

// Durability and overload counters, on the process-wide registry like the
// wal_* metrics they complement.
var (
	mAdmissionRejected = obs.Default().Counter("timingd_admission_rejected_total",
		"Requests rejected by the concurrent-query admission limiter or a full edit queue.")
	mRecoveryReplayed = obs.Default().Counter("timingd_recovery_replayed_edits_total",
		"WAL edits replayed into recovered copies, owned or replicated, at startup.")
	mSnapshotsPersisted = obs.Default().Counter("timingd_snapshots_persisted_total",
		"Snapshots persisted, owned or replicated (load, checkpoint, drain, replica install or compaction).")
	mPersistErrors = obs.Default().Counter("timingd_persist_errors_total",
		"Failed snapshot persists (checkpoint or drain).")
	hSnapshotSeconds = obs.Default().Histogram("timingd_snapshot_seconds",
		"Wall time of one design snapshot persist.")
)

func newMetrics() *metrics {
	return &metrics{
		requests: obs.Default().CounterVec("timingd_requests_total",
			"HTTP requests served, by route.", "route", routePatterns...),
		latency: obs.Default().HistogramVec("timingd_request_seconds",
			"HTTP request latency in seconds, by route.", "route", routePatterns...),
		clusterRequests: obs.Default().CounterVec("timingd_cluster_requests_total",
			"Cluster-internal HTTP requests served (heartbeats, replication), by route.", "route", routePatterns...),
		clusterLatency: obs.Default().HistogramVec("timingd_cluster_request_seconds",
			"Cluster-internal HTTP request latency in seconds, by route.", "route", routePatterns...),
	}
}

// observe records one served request. route may be any string; values
// outside routePatterns aggregate under "other". Requests marked
// cluster-internal count in the cluster series instead of the user ones.
func (m *metrics) observe(r *http.Request, route string, t0 time.Time) {
	if r != nil && r.Header.Get(cluster.InternalHeader) != "" {
		m.clusterRequests.With(route).Inc()
		m.clusterLatency.With(route).ObserveSince(t0)
		return
	}
	m.requests.With(route).Inc()
	m.latency.With(route).ObserveSince(t0)
}

// write renders the exposition text: the process-wide registry first, then
// the per-design engine counters, passed in by the server so the scrape sees
// live values.
func (m *metrics) write(w io.Writer, designs map[string]*design) {
	obs.Default().WritePrometheus(w)

	names := make([]string, 0, len(designs))
	for n := range designs {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP timingd_designs Designs currently loaded.\n# TYPE timingd_designs gauge\ntimingd_designs %d\n", len(names))

	gauge := func(metric, help string, val func(d *design) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for _, n := range names {
			fmt.Fprintf(w, "%s{design=%q} %g\n", metric, n, val(designs[n]))
		}
	}
	counter := func(metric, help string, val func(d *design) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, n := range names {
			fmt.Fprintf(w, "%s{design=%q} %d\n", metric, n, val(designs[n]))
		}
	}
	counter("timingd_design_edits_total", "ECO edits applied.",
		func(d *design) uint64 { return d.eng.Stats().Edits })
	counter("timingd_design_gates_reevaluated_total", "Gate evaluations performed by incremental re-propagation.",
		func(d *design) uint64 { return d.eng.Stats().GatesReevaluated })
	counter("timingd_design_gates_cut_total", "Re-evaluations whose cone terminated early.",
		func(d *design) uint64 { return d.eng.Stats().GatesCut })
	counter("timingd_design_endpoints_recomputed_total", "Endpoint entries re-transported.",
		func(d *design) uint64 { return d.eng.Stats().EndpointsRecomputed })
	counter("timingd_design_full_passes_total", "Full propagation passes (load and rebuild).",
		func(d *design) uint64 { return d.eng.Stats().FullPasses })
	gauge("timingd_design_gates", "Design size in gates.",
		func(d *design) float64 { return float64(d.eng.GateCount()) })
	gauge("timingd_design_cache_hit_ratio", "Fraction of gate evaluations avoided vs one full pass per edit.",
		func(d *design) float64 { return d.eng.Stats().CacheHitRatio() })
	gauge("timingd_design_version", "Snapshot version (edit sequence number).",
		func(d *design) float64 { return float64(d.eng.Snapshot().Version()) })
}
