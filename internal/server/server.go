// Package server is the long-lived timing-query service behind cmd/timingd:
// it loads the coefficient library once, hosts many named designs — each an
// incremental incsta.Engine — and serves concurrent timing queries over
// HTTP/JSON while ECO edits stream in. Edits are serialized per design
// through a single-writer queue; queries read immutable engine snapshots
// and never block on an edit in flight.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuits"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/incsta"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/sta"
	"repro/internal/stdcell"
	"repro/internal/timinglib"
	"repro/internal/wal"
)

// Server hosts the designs. Create with New, call Recover when a Store is
// configured, mount Handler on an http.Server, Close on shutdown.
type Server struct {
	lib   *timinglib.File
	mux   *http.ServeMux
	met   *metrics
	store *Store
	adm   *admission
	node  *cluster.Node // nil = single-node

	maxBody    int64
	queueDepth int
	reqTimeout time.Duration
	ready      atomic.Bool

	// Per-design ownership leases (cluster mode; always non-nil so the
	// router can consult it unconditionally) and the promotion loop that
	// elects this node when a lease owner dies.
	leases       *cluster.LeaseTable
	promoteEvery time.Duration
	promoStop    chan struct{}
	promoDone    chan struct{}

	// Per-design election stand-down deadlines: a candidate whose claim was
	// refused because a strictly more caught-up copy exists stops claiming
	// for a few scan intervals, so its own rising promise watermark cannot
	// starve the better candidate's election.
	standMu   sync.Mutex
	standDown map[string]time.Time

	// Observability: the tracer request spans record into, the head-based
	// sampling rate for traces minted here (0 = only trace requests that
	// arrive with a sampled traceparent), the base logger request-scoped
	// loggers derive from, and the bounded slow-request log.
	tracer     *obs.Tracer
	sampleRate float64
	logger     *slog.Logger
	slow       *slowLog

	mu      sync.Mutex
	designs map[string]*design
	loading map[string]bool // names reserved by an in-flight load
	closed  bool

	// replica-held designs: shipped by their owner, served read-only.
	repMu sync.Mutex
	reps  map[string]*replicaState

	// recovery progress surfaced by /v1/readyz while not ready.
	recMu       sync.Mutex
	recTotal    int
	recDone     int
	recCurrent  string
	recoverHook func(name string) // test seam: called before each design replays
}

// Option customises New. The zero configuration behaves exactly like the
// historical in-memory server.
type Option func(*Server)

// WithStore makes the server durable: every design gets a write-ahead log
// and periodic snapshots under the store's root, and the server starts
// not-ready until Recover has replayed the persisted state.
func WithStore(st *Store) Option { return func(s *Server) { s.store = st } }

// WithAdmission bounds the queries evaluated concurrently across the server
// (a batch weighs its query count). Requests queue FIFO up to maxWait, then
// are rejected with 503 "overloaded". max <= 0 disables the limiter.
func WithAdmission(max int, maxWait time.Duration) Option {
	return func(s *Server) { s.adm = newAdmission(int64(max), maxWait) }
}

// WithMaxBodyBytes caps the PUT /designs/{name} request body (default 64
// MiB); larger bodies are rejected with 413 "payload_too_large". n <= 0
// keeps the default.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithEditQueueDepth sets each design's bounded pending-edit buffer
// (default 64); a full queue rejects edits with 503 "overloaded".
func WithEditQueueDepth(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.queueDepth = n
		}
	}
}

// WithCluster attaches a cluster membership view: the server routes every
// design-scoped request by the node's ring (serving, redirecting or
// proxying), ships snapshots of the designs it owns to their replicas, and
// accepts shipped snapshots on /v1/internal/replicate.
func WithCluster(n *cluster.Node) Option { return func(s *Server) { s.node = n } }

// WithPromotionInterval sets how often the promotion loop scans for designs
// whose lease owner has died (default 1s). Tests use short intervals.
func WithPromotionInterval(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.promoteEvery = d
		}
	}
}

// WithRequestTimeout puts a deadline on every request's context, so a stuck
// client or an oversized query cannot pin server resources forever. 0
// disables.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithTracer records request spans into tr instead of the process-wide
// obs.Trace — tests hosting several servers in one process give each its own.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *Server) {
		if tr != nil {
			s.tracer = tr
		}
	}
}

// WithTraceSampling head-samples requests that arrive without a traceparent:
// rate is the probability each such request mints a sampled trace (clamped to
// [0,1], default 0 = trace only what upstream already sampled). An incoming
// traceparent always wins — its sampled flag is the upstream decision.
func WithTraceSampling(rate float64) Option {
	return func(s *Server) {
		s.sampleRate = min(max(rate, 0), 1)
	}
}

// WithLogger sets the base logger request-scoped loggers (request_id,
// trace_id attrs) derive from; default slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithSlowLogSize sets how many slowest requests GET /v1/debug/slow retains
// (default 32).
func WithSlowLogSize(n int) Option {
	return func(s *Server) { s.slow = newSlowLog(n) }
}

// log returns the server's base logger, falling back to the process default
// so SetupLogs after New still takes effect.
func (s *Server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// defaultMaxBodyBytes caps design-load request bodies (64 MiB).
const defaultMaxBodyBytes = 64 << 20

// New builds a server around one coefficient library (loaded once, shared
// by every design).
func New(lib *timinglib.File, opts ...Option) *Server {
	s := &Server{
		lib:          lib,
		mux:          http.NewServeMux(),
		met:          newMetrics(),
		maxBody:      defaultMaxBodyBytes,
		designs:      map[string]*design{},
		loading:      map[string]bool{},
		reps:         map[string]*replicaState{},
		leases:       cluster.NewLeaseTable(),
		standDown:    map[string]time.Time{},
		promoteEvery: time.Second,
		tracer:       obs.Trace,
		slow:         newSlowLog(defaultSlowLogSize),
	}
	for _, o := range opts {
		o(s)
	}
	if s.store != nil && s.node != nil {
		// Promises must survive a crash: a restarted node that re-granted an
		// epoch it promised before the crash would break the at-most-one-
		// winner-per-epoch invariant the fencing rests on. The hook fires
		// concurrently from any handler, so snapshot and write happen under
		// one mutex: without it, a goroutine that snapshotted before another
		// mutation could rename its older snapshot last and erase a
		// just-granted promise from leases.json.
		var leaseSaveMu sync.Mutex
		s.leases.OnChange(func() {
			leaseSaveMu.Lock()
			defer leaseSaveMu.Unlock()
			if err := s.store.saveLeases(s.leases.Snapshot()); err != nil {
				mPersistErrors.Inc()
			}
		})
	}
	// A durable server answers readyz only after Recover has replayed its
	// persisted designs; an in-memory server has nothing to recover.
	s.ready.Store(s.store == nil)

	// ungated routes answer even before recovery completes (liveness,
	// readiness, metrics); everything else 503s with "not_ready" until then.
	ungated := map[string]bool{
		"GET /healthz": true, "GET /v1/healthz": true,
		"GET /v1/readyz": true, "GET /metrics": true,
		// Cluster introspection answers during recovery too, so peers and
		// operators can inspect a recovering node's ring view. The heartbeat
		// target must answer ungated or a recovering node would be ejected.
		"GET /v1/cluster/members": true, "GET /v1/cluster/designs/{name}": true,
		"GET /v1/internal/health": true,
		// Debug introspection: what made a recovering node slow matters too.
		"GET /v1/debug/slow": true,
	}
	route := func(pattern string, h func(http.ResponseWriter, *http.Request)) {
		gated := !ungated[pattern]
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			if gated && !s.ready.Load() {
				retryAfter(w, time.Second)
				httpError(w, http.StatusServiceUnavailable, codeNotReady, "recovery in progress")
				s.met.observe(r, pattern, t0)
				return
			}
			if s.reqTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
			h(w, r)
			s.met.observe(r, pattern, t0)
		})
	}
	// Infra endpoints stay unversioned; /v1 aliases serve probers that only
	// speak the versioned prefix.
	route("GET /healthz", s.handleHealth)
	route("GET /v1/healthz", s.handleHealth)
	route("GET /v1/readyz", s.handleReady)
	route("GET /metrics", s.handleMetrics)
	route("GET /v1/debug/slow", s.handleSlow)
	route("GET /v1/designs", s.handleList)
	route("PUT /v1/designs/{name}", s.handleLoad)
	route("DELETE /v1/designs/{name}", s.handleDelete)
	route("GET /v1/designs/{name}", s.admitted(s.handleSummary))
	route("GET /v1/designs/{name}/gates", s.admitted(s.handleGates))
	route("GET /v1/designs/{name}/paths", s.admitted(s.handlePaths))
	route("GET /v1/designs/{name}/slacks", s.admitted(s.handleSlacks))
	route("POST /v1/designs/{name}/edits", s.handleEdit)
	route("POST /v1/designs/{name}/batch", s.handleBatch)
	// Cluster routes exist only when a cluster node is attached. The
	// /v1/internal/ surface is the versioned cluster-internal contract
	// (API.md "Cluster-internal API"): every request carries the sender's
	// identity and ownership epoch, and stale epochs are rejected with the
	// standard error envelope under code "stale_epoch".
	if s.node != nil {
		route("POST /v1/internal/replicate", s.handleReplicate)
		route("POST /v1/internal/edits", s.handleReplicateEdits)
		route("POST /v1/internal/lease/claim", s.handleLeaseClaim)
		route("POST /v1/internal/lease/adopt", s.handleLeaseAdopt)
		route("POST /v1/internal/members", s.handleInternalMembers)
		route("GET /v1/internal/health", s.handleInternalHealth)
		// Resource-shaped cluster admin API.
		route("GET /v1/cluster/members", s.handleMembersGet)
		route("POST /v1/cluster/members", s.handleMembersAdd)
		route("DELETE /v1/cluster/members/{peer...}", s.handleMembersRemove)
		route("GET /v1/cluster/designs/{name}", s.handleClusterDesign)
	}
	// Catch-all for unregistered paths: a JSON 404, counted under the
	// bounded "other" series instead of minting a label per probed URL.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		httpError(w, http.StatusNotFound, codeUnknownRoute, "no such route: %s %s", r.Method, r.URL.Path)
		s.met.observe(r, r.Method+" "+r.URL.Path, t0)
	})
	if s.node != nil {
		s.promoStop = make(chan struct{})
		s.promoDone = make(chan struct{})
		go s.promotionLoop()
	}
	return s
}

// Handler returns the instrumented route table, wrapped in the correlation
// middleware (request IDs, trace propagation, access + slow logging). With a
// cluster node attached, design-scoped requests then pass the ring-aware
// router, which serves them locally, from a replica snapshot, or forwards
// them to the design's owner.
func (s *Server) Handler() http.Handler {
	var inner http.Handler = s.mux
	if s.node != nil {
		inner = http.HandlerFunc(s.routeCluster)
	}
	return s.correlate(inner)
}

// Close stops every design's edit queue and rejects further loads. Called
// after http.Server.Shutdown has drained in-flight requests.
func (s *Server) Close() {
	if s.promoStop != nil {
		select {
		case <-s.promoStop:
		default:
			close(s.promoStop)
		}
		<-s.promoDone
	}
	s.mu.Lock()
	s.closed = true
	designs := make([]*design, 0, len(s.designs))
	for _, d := range s.designs {
		designs = append(designs, d)
	}
	s.designs = map[string]*design{}
	s.mu.Unlock()
	for _, d := range designs {
		d.close()
	}
	s.repMu.Lock()
	reps := make([]*replicaState, 0, len(s.reps))
	for _, rep := range s.reps {
		reps = append(reps, rep)
	}
	s.reps = map[string]*replicaState{}
	s.repMu.Unlock()
	for _, rep := range reps {
		rep.mu.Lock()
		if rep.log != nil {
			rep.log.Close()
			rep.log = nil
		}
		rep.mu.Unlock()
	}
}

func (s *Server) design(name string) (*design, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.designs[name]
	return d, ok
}

// clusterSeq is the version an owned design reports in cluster mode
// (applied-edit seq + 1, continuous across promotion/recovery), or 0 in
// single-node mode — the sentinel the serve* helpers read as "use the
// engine's own version".
func (s *Server) clusterSeq(d *design) uint64 {
	if s.node == nil {
		return 0
	}
	return d.seq.Load() + 1
}

// --- request/response shapes ---

// LoadRequest is the PUT /designs/{name} body. Exactly one of Circuit (a
// built-in benchmark name) or Bench (ISCAS85 .bench text) selects the
// netlist; parasitics are extracted from a seeded placement.
type LoadRequest struct {
	Circuit string `json:"circuit,omitempty"`
	Bench   string `json:"bench,omitempty"`
	// Strength is the drive strength .bench mapping uses (default 2).
	Strength int `json:"strength,omitempty"`
	// Seed picks the placement used for parasitic extraction (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Epsilon is the incremental early-termination cutoff in seconds
	// (default 0 = bit-exact).
	Epsilon float64 `json:"epsilon,omitempty"`
	// InputSlewPs overrides the default primary-input transition (ps).
	InputSlewPs float64 `json:"input_slew_ps,omitempty"`
	// Corners optionally batches operating corners through the design's
	// engine: every edit re-propagates all of them in one pass, and queries
	// select one with ?corner=<name>. Corner 0 is the primary corner
	// unqualified queries read. Empty = single neutral corner.
	Corners []CornerSpec `json:"corners,omitempty"`
	// Parallelism is the wavefront worker count used by the engine's full
	// passes and re-propagation (0/1 = sequential; results are identical at
	// any value).
	Parallelism int `json:"parallelism,omitempty"`
}

// CornerSpec is the wire form of one operating corner.
type CornerSpec struct {
	// Name identifies the corner in queries; defaults to "corner<i>".
	Name string `json:"name,omitempty"`
	// InputSlewPs overrides the primary-input transition at this corner (ps,
	// 0 = keep the design default).
	InputSlewPs float64 `json:"input_slew_ps,omitempty"`
	// CapScale derates every parasitic capacitance the corner sees (0 = 1.0).
	CapScale float64 `json:"cap_scale,omitempty"`
}

// cornerSet converts the wire corners into the engine's CornerSet.
func cornerSet(specs []CornerSpec) sta.CornerSet {
	cs := sta.CornerSet{}
	for _, c := range specs {
		cs.Corners = append(cs.Corners, sta.Corner{
			Name:      c.Name,
			InputSlew: c.InputSlewPs * 1e-12,
			CapScale:  c.CapScale,
		})
	}
	return cs
}

// EditRequest is the POST /designs/{name}/edits body.
type EditRequest struct {
	// Op is one of "resize", "swap", "set_input_slew", "set_net_parasitics".
	Op       string       `json:"op"`
	Gate     string       `json:"gate,omitempty"`
	Strength int          `json:"strength,omitempty"`
	Cell     string       `json:"cell,omitempty"`
	Net      string       `json:"net,omitempty"`
	SlewPs   float64      `json:"slew_ps,omitempty"`
	Tree     *rctree.Tree `json:"tree,omitempty"`
}

// DesignSummary is the GET /v1/designs/{name} response.
type DesignSummary struct {
	Name      string             `json:"name"`
	Gates     int                `json:"gates"`
	Endpoints int                `json:"endpoints"`
	Version   uint64             `json:"version"`
	ArrivalPs map[string]float64 `json:"arrival_ps"` // sigma level → critical arrival
	Stats     incsta.Stats       `json:"stats"`
	HitRatio  float64            `json:"cache_hit_ratio"`
	// Corner is the corner this summary describes; Corners lists every
	// corner the design batches (absent for a single unnamed neutral corner).
	Corner  string   `json:"corner,omitempty"`
	Corners []string `json:"corners,omitempty"`
}

// PathSummary is one entry of the GET /designs/{name}/paths response.
type PathSummary struct {
	Endpoint    string             `json:"endpoint"`
	Launch      string             `json:"launch"`
	Stages      int                `json:"stages"`
	QuantilePs  map[string]float64 `json:"quantile_ps"`
	MeanDelayPs float64            `json:"mean_delay_ps"`
}

// EditResponse is the POST /designs/{name}/edits response.
type EditResponse struct {
	Version     uint64 `json:"version"`
	Op          string `json:"op"`
	Seeded      int    `json:"seeded"`
	Reevaluated int    `json:"reevaluated"`
	Cut         int    `json:"cut"`
	Endpoints   int    `json:"endpoints"`
}

// ErrorDetail is the unified v1 error envelope payload: a stable
// machine-readable code, a human-readable message, and optional detail
// (typically the underlying validation error).
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// errorBody wraps every error response: {"error":{"code","message","detail"}}.
type errorBody struct {
	Error ErrorDetail `json:"error"`
}

// Stable error codes of the v1 API (see API.md).
const (
	codeInvalidRequest = "invalid_request"
	codeNotFound       = "not_found"
	codeUnknownRoute   = "unknown_route"
	codeConflict       = "already_exists"
	codeUnprocessable  = "load_failed"
	codeEditRejected   = "edit_rejected"
	codeTooLarge       = "batch_too_large"
	codeUnavailable    = "server_closed"
	codeInternal       = "internal"
	codeOverloaded     = "overloaded"
	codePayloadLarge   = "payload_too_large"
	codeNotReady       = "not_ready"
	// Cluster-mode codes: a forwarded request landed on a node that does not
	// own the design (ring views diverged mid-hop), the design's owner is
	// unreachable (circuit breaker open / transport failure), or the request
	// carried an ownership epoch below the receiver's adopted lease — the
	// sender is a fenced ex-owner and must stand down.
	codeWrongNode       = "wrong_node"
	codePeerUnavailable = "peer_unavailable"
	codeStaleEpoch      = "stale_epoch"
)

// retryAfter sets the Retry-After hint on a back-pressure 503 (rounded up
// to at least one second, the header's resolution).
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// httpErrorDetail is httpError with the wrapped cause split into the detail
// field.
func httpErrorDetail(w http.ResponseWriter, status int, code, message string, cause error) {
	body := errorBody{Error: ErrorDetail{Code: code, Message: message}}
	if cause != nil {
		body.Error.Detail = cause.Error()
	}
	writeJSON(w, status, body)
}

// editStatus maps an edit failure onto an HTTP status and error code: typed
// rejections of malformed edits are the client's fault, a full queue or
// closed design is back-pressure, everything else the server's.
func editStatus(err error) (int, string) {
	var ee *incsta.EditError
	switch {
	case errors.As(err, &ee):
		return http.StatusBadRequest, codeEditRejected
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, codeOverloaded
	case errors.Is(err, errStaleEpoch):
		// The design was fenced mid-edit: ownership moved to a higher epoch.
		// Retryable — the router sends the retry to the new owner.
		return http.StatusServiceUnavailable, codeStaleEpoch
	case errors.Is(err, errUnreplicated):
		// Applied locally, acked by no replica: in doubt, retryable.
		return http.StatusServiceUnavailable, codePeerUnavailable
	case errors.Is(err, ErrDesignClosed):
		return http.StatusServiceUnavailable, codeUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, codeUnavailable
	default:
		return http.StatusInternalServerError, codeInternal
	}
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyStatus is the /v1/readyz body while recovery is still replaying:
// the error envelope every 503 carries, plus per-design progress so an
// operator watching a long recovery can see it move.
type readyStatus struct {
	Status           string      `json:"status"`
	DesignsTotal     int         `json:"designs_total"`
	DesignsRecovered int         `json:"designs_recovered"`
	Current          string      `json:"current,omitempty"` // design replaying right now
	Error            ErrorDetail `json:"error"`
}

// handleReady is the readiness probe: 503 "not_ready" until recovery has
// replayed every persisted design, so a load balancer does not route
// traffic at a server still rebuilding engines. The 503 body reports how
// far recovery has come (designs recovered / total, current design).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		s.recMu.Lock()
		total, done, current := s.recTotal, s.recDone, s.recCurrent
		s.recMu.Unlock()
		retryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, readyStatus{
			Status: "recovering", DesignsTotal: total, DesignsRecovered: done, Current: current,
			Error: ErrorDetail{
				Code:    codeNotReady,
				Message: fmt.Sprintf("recovery in progress (%d/%d designs)", done, total),
			},
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// admitted wraps a query handler with the global admission limiter (weight
// 1; batches weigh themselves inside handleBatch).
func (s *Server) admitted(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.adm.acquire(r.Context(), 1) {
			mAdmissionRejected.Inc()
			retryAfter(w, s.adm.maxWait)
			httpError(w, http.StatusServiceUnavailable, codeOverloaded, "server at concurrent-query capacity")
			return
		}
		defer s.adm.release(1)
		h(w, r)
	}
}

// Recover rebuilds every design persisted in the store — snapshot load, one
// full analysis pass, WAL tail replay — then marks the server ready. Must be
// called (once) after New when a Store is configured; without a store it
// only flips readiness.
func (s *Server) Recover(ctx context.Context) error {
	if s.store == nil {
		s.ready.Store(true)
		return nil
	}
	ctx, span := obs.StartSpan(ctx, "server.recover")
	defer span.End()
	if s.node != nil {
		// Leases first: promises made before the crash must be honoured
		// before any claim or internal request is answered.
		m, err := s.store.loadLeases()
		if err != nil {
			return fmt.Errorf("server: recover leases: %w", err)
		}
		s.leases.Load(m)
		for name, li := range m {
			s.node.SetLeaseEpoch(name, li.Epoch)
		}
	}
	escaped, err := s.store.listDesigns()
	if err != nil {
		return fmt.Errorf("server: recover: %w", err)
	}
	valid := escaped[:0]
	for _, esc := range escaped {
		if s.store.hasSnapshot(esc) {
			valid = append(valid, esc)
		}
		// else: debris — crash mid-create or mid-delete, never acked
	}
	s.recMu.Lock()
	s.recTotal, s.recDone, s.recCurrent = len(valid), 0, ""
	s.recMu.Unlock()
	for _, esc := range valid {
		display := esc
		if name, derr := url.PathUnescape(esc); derr == nil {
			display = name
		}
		s.recMu.Lock()
		s.recCurrent = display
		s.recMu.Unlock()
		if s.recoverHook != nil {
			s.recoverHook(display)
		}
		if err := s.recoverDesign(ctx, esc); err != nil {
			return fmt.Errorf("server: recover %s: %w", esc, err)
		}
		s.recMu.Lock()
		s.recDone++
		s.recMu.Unlock()
	}
	s.recMu.Lock()
	s.recCurrent = ""
	s.recMu.Unlock()
	s.recoverReplicas(ctx)
	s.ready.Store(true)
	return nil
}

// recoverDesign rebuilds one design from its snapshot plus surviving WAL
// tail. Records the snapshot already includes (seq <= WALSeq) are skipped;
// the rest are decoded as the log streams them and replayed as one engine
// batch, which publishes a single snapshot instead of one per record. Edits
// the original submission rejected replay as the same typed rejection and
// are skipped identically.
func (s *Server) recoverDesign(ctx context.Context, escapedName string) error {
	ctx, span := obs.StartSpan(ctx, "server.recover.design")
	defer span.End()
	snap, err := s.store.loadSnapshot(escapedName)
	if err != nil {
		return err
	}
	span.SetAttr("design", snap.Name)
	eng, err := rebuildEngine(s.lib, snap)
	if err != nil {
		return fmt.Errorf("rebuild engine: %w", err)
	}
	var tail []incsta.Edit
	var seqs []uint64
	dlog, res, err := s.store.openWAL(snap.Name, func(seq uint64, payload []byte) error {
		if seq <= snap.WALSeq {
			return nil
		}
		var ed incsta.Edit
		if err := json.Unmarshal(payload, &ed); err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		tail = append(tail, ed)
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	results, err := eng.ApplyBatch(tail)
	if err != nil {
		dlog.Close()
		return fmt.Errorf("wal replay: %w", err)
	}
	replayed := 0
	for i, r := range results {
		if r.Err != nil {
			var ee *incsta.EditError
			if errors.As(r.Err, &ee) {
				continue // rejected originally, rejected again: state unchanged
			}
			dlog.Close()
			return fmt.Errorf("wal record %d: %w", seqs[i], r.Err)
		}
		replayed++
	}
	// After a compaction the file is empty; keep appends past the snapshot's
	// high-water mark so sequence numbers never recycle.
	dlog.EnsureSeq(snap.WALSeq)
	mRecoveryReplayed.Add(uint64(replayed))
	span.SetAttr("replayed", replayed)
	span.SetAttr("wal_records", res.Records)
	if s.store.cfg.VerifyRecovery {
		if err := eng.VerifyFull(ctx); err != nil {
			dlog.Close()
			return fmt.Errorf("recovery verification: %w", err)
		}
	}
	d := newDesign(snap.Name, eng, dlog, s.store, s.queueDepth)
	if s.node != nil {
		// The replication seq is the snapshot's acked count plus the edits
		// the WAL replay just re-applied; the epoch is whatever the design
		// last owned under. In a multi-node cluster the recovered design
		// starts FENCED: this node may have been superseded while it was
		// down, so it must win a fresh election (promotion loop) before it
		// serves as owner again. A single-member cluster has nobody to ask.
		d.seq.Store(snap.EditSeq + uint64(replayed))
		d.epoch.Store(snap.Epoch)
		s.attachCluster(d)
		if len(s.node.Members()) > 1 {
			d.fenced.Store(true)
		} else {
			s.leases.Adopt(snap.Name, s.node.Self(), snap.Epoch)
			s.node.SetLeaseEpoch(snap.Name, snap.Epoch)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		d.close()
		return errors.New("server closed during recovery")
	}
	s.designs[snap.Name] = d
	s.mu.Unlock()
	s.startShipping(d)
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	designs := make(map[string]*design, len(s.designs))
	for n, d := range s.designs {
		designs[n] = d
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, designs)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.designs))
	for n := range s.designs {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string][]string{"designs": names})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req LoadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, codePayloadLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad load request", err)
		return
	}

	var nl *netlist.Netlist
	var err error
	switch {
	case req.Circuit != "" && req.Bench != "":
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "give either circuit or bench, not both")
		return
	case req.Circuit != "":
		nl, err = circuits.ByName(req.Circuit)
	case req.Bench != "":
		nl, err = netlist.ParseBench(strings.NewReader(req.Bench), name,
			&netlist.BenchOptions{Strength: req.Strength})
	default:
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "need a circuit name or bench text")
		return
	}
	if err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "netlist rejected", err)
		return
	}
	corners := cornerSet(req.Corners)
	if err := corners.Validate(); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "corners rejected", err)
		return
	}

	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	cellLib := stdcell.NewLibrary(device.Default28nm())
	par := layout.Default28nm()
	pl, err := layout.Place(nl, par, seed)
	if err != nil {
		httpErrorDetail(w, http.StatusUnprocessableEntity, codeUnprocessable, "placement failed", err)
		return
	}
	trees, err := layout.Extract(nl, cellLib, par, pl)
	if err != nil {
		httpErrorDetail(w, http.StatusUnprocessableEntity, codeUnprocessable, "extraction failed", err)
		return
	}

	opt := sta.Options{InputSlew: req.InputSlewPs * 1e-12}
	eng, err := incsta.New(s.lib, nl, trees, incsta.Config{
		Options: opt, Epsilon: req.Epsilon,
		Corners: corners, Parallelism: req.Parallelism,
	})
	if err != nil {
		httpErrorDetail(w, http.StatusUnprocessableEntity, codeUnprocessable, "analysis failed", err)
		return
	}

	// Reserve the name, persist the initial state (so a kill -9 a moment
	// after the 201 still recovers the design), then publish.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, codeUnavailable, "server shutting down")
		return
	}
	if _, dup := s.designs[name]; dup || s.loading[name] {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, codeConflict, "design %q already loaded (DELETE it first)", name)
		return
	}
	s.loading[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.loading, name)
		s.mu.Unlock()
	}()

	// In cluster mode a fresh design starts under a quorum-granted lease:
	// the load fails rather than create a design nobody is fenced against.
	// A claim can be refused by members still holding replica debris of a
	// previously deleted same-named design (missed tombstone); debris whose
	// reported owner granted this very claim is provably stale, so it is
	// tombstoned and the claim retried — without this, the PUT would 503
	// forever against copies nobody will ever clean up.
	var epoch uint64
	if s.node != nil {
		claimed := false
		for attempt := 0; attempt < 3 && !claimed; attempt++ {
			epoch = s.leases.NextEpoch(name)
			var debris []string
			claimed, debris = s.claimFreshLease(name, epoch)
			if claimed || len(debris) == 0 {
				break
			}
			s.sendTombstones(name, s.leases.NextEpoch(name), debris)
		}
		if !claimed {
			retryAfter(w, time.Second)
			httpError(w, http.StatusServiceUnavailable, codePeerUnavailable,
				"cannot claim ownership lease for %q (no quorum)", name)
			return
		}
		// Any stale local replica copy of the name is superseded by the
		// design being created under the freshly won epoch.
		s.dropReplica(name)
	}

	var dlog *wal.Log
	if s.store != nil {
		snap := snapshotOf(name, eng, 0)
		snap.Epoch = epoch
		if err := s.store.saveSnapshot(snap); err != nil {
			httpErrorDetail(w, http.StatusInternalServerError, codeInternal, "persisting design", err)
			return
		}
		if dlog, _, err = s.store.openWAL(name, nil); err != nil {
			httpErrorDetail(w, http.StatusInternalServerError, codeInternal, "opening design wal", err)
			return
		}
	}
	d := newDesign(name, eng, dlog, s.store, s.queueDepth)
	d.epoch.Store(epoch)
	s.attachCluster(d)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		d.close()
		httpError(w, http.StatusServiceUnavailable, codeUnavailable, "server shutting down")
		return
	}
	s.designs[name] = d
	s.mu.Unlock()
	if s.node != nil {
		s.leases.Adopt(name, s.node.Self(), epoch)
		s.node.SetLeaseEpoch(name, epoch)
		go s.announceLease(name, epoch)
	}
	s.startShipping(d)

	writeJSON(w, http.StatusCreated, s.summarize(d))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	d, ok := s.designs[name]
	if ok {
		delete(s.designs, name)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", name)
		return
	}
	d.close()
	if s.store != nil {
		// Drop the persisted state too, or a restart would resurrect the
		// design the client just deleted.
		if err := s.store.removeDesign(name); err != nil {
			httpErrorDetail(w, http.StatusInternalServerError, codeInternal, "removing persisted design", err)
			return
		}
	}
	if s.node != nil {
		// Tombstone every copy so a deleted design does not linger as a
		// stale read-only replica, and drop the lease — the name starts a
		// fresh epoch sequence if reused. The tombstone is broadcast at a
		// fresh epoch claimed from this node's own watermark (one past
		// everything it has adopted or promised, computed before Forget
		// wipes the entry), so a replica that promised a concurrent claim
		// this node granted still accepts it instead of refusing
		// stale_epoch and serving the deleted design forever. Best effort:
		// a replica that still refuses (or misses the broadcast) is
		// reaped as provable debris if the name is ever loaded again.
		epoch := s.leases.NextEpoch(name)
		s.leases.Forget(name)
		s.node.ClearLeaseEpoch(name)
		go s.broadcastDelete(name, epoch)
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) summarize(d *design) DesignSummary {
	sum, _ := s.summarizeAt(d, d.eng.Snapshot(), 0)
	return sum
}

// summarizeAt builds the summary of one corner from a pinned snapshot.
func (s *Server) summarizeAt(d *design, snap *incsta.Snapshot, ci int) (DesignSummary, error) {
	res, err := snap.ResultAt(ci)
	if err != nil {
		return DesignSummary{}, err
	}
	arr := make(map[string]float64, len(res.ArrivalQ))
	for n, v := range res.ArrivalQ {
		arr[strconv.Itoa(n)] = v * 1e12
	}
	st := snap.Stats()
	sum := DesignSummary{
		Name: d.name, Gates: d.eng.GateCount(), Endpoints: res.Endpoints,
		Version: snap.Version(), ArrivalPs: arr, Stats: st, HitRatio: st.CacheHitRatio(),
	}
	if corners := snap.Corners(); len(corners) > 1 || corners[0] != (sta.Corner{}) {
		sum.Corner = corners[ci].Label(ci)
		for i, c := range corners {
			sum.Corners = append(sum.Corners, c.Label(i))
		}
	}
	return sum, nil
}

// cornerOf resolves the ?corner= query parameter against a pinned snapshot
// ("" = primary corner 0).
func cornerOf(snap *incsta.Snapshot, name string) (int, error) {
	ci, ok := snap.CornerIndex(name)
	if !ok {
		return 0, fmt.Errorf("unknown corner %q", name)
	}
	return ci, nil
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	d, ok := s.design(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", r.PathValue("name"))
		return
	}
	s.serveSummary(w, r, d, d.eng.Snapshot(), s.clusterSeq(d))
}

// serveSummary answers a summary query from a pinned snapshot. seq != 0
// overrides the reported version — a replica reports the shipped sequence
// number, not the version its rebuilt engine happens to count.
func (s *Server) serveSummary(w http.ResponseWriter, r *http.Request, d *design, snap *incsta.Snapshot, seq uint64) {
	ci, err := cornerOf(snap, r.URL.Query().Get("corner"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	sum, err := s.summarizeAt(d, snap, ci)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if seq != 0 {
		sum.Version = seq
	}
	writeJSON(w, http.StatusOK, sum)
}

// GateInfo is one entry of the GET /designs/{name}/gates response — the
// names a client needs to address resize/swap edits.
type GateInfo struct {
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Output string `json:"output"`
}

func (s *Server) handleGates(w http.ResponseWriter, r *http.Request) {
	d, ok := s.design(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", r.PathValue("name"))
		return
	}
	s.serveGates(w, d)
}

func (s *Server) serveGates(w http.ResponseWriter, d *design) {
	nl, _ := d.eng.CopyDesign()
	gates := make([]GateInfo, len(nl.Gates))
	for i, g := range nl.Gates {
		gates[i] = GateInfo{Name: g.Name, Cell: g.Cell, Output: g.Output()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"design": d.name, "gates": gates})
}

// pathsAt builds the k-worst-paths payload of one corner from a pinned
// snapshot — shared by the paths route and the batch endpoint.
func (s *Server) pathsAt(d *design, snap *incsta.Snapshot, ci, k int) (map[string]any, error) {
	paths, err := snap.WorstPathsAt(ci, k)
	if err != nil {
		return nil, err
	}
	levels := d.eng.Options().Levels
	out := make([]PathSummary, len(paths))
	for i, p := range paths {
		q := make(map[string]float64, len(levels))
		for _, n := range levels {
			q[strconv.Itoa(n)] = p.Quantile(n) * 1e12
		}
		out[i] = PathSummary{
			Endpoint: p.Endpoint, Launch: p.Launch.String(), Stages: len(p.Stages),
			QuantilePs: q, MeanDelayPs: p.Mean() * 1e12,
		}
	}
	return map[string]any{"version": snap.Version(), "paths": out}, nil
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	d, ok := s.design(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", r.PathValue("name"))
		return
	}
	s.servePaths(w, r, d, d.eng.Snapshot(), s.clusterSeq(d))
}

func (s *Server) servePaths(w http.ResponseWriter, r *http.Request, d *design, snap *incsta.Snapshot, seq uint64) {
	k := 5
	if q := r.URL.Query().Get("k"); q != "" {
		var err error
		if k, err = strconv.Atoi(q); err != nil || k <= 0 {
			httpError(w, http.StatusBadRequest, codeInvalidRequest, "k must be a positive integer")
			return
		}
	}
	ci, err := cornerOf(snap, r.URL.Query().Get("corner"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	payload, err := s.pathsAt(d, snap, ci, k)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "paths: %v", err)
		return
	}
	if seq != 0 {
		payload["version"] = seq
	}
	writeJSON(w, http.StatusOK, payload)
}

// slacksAt builds the endpoint-slack payload of one corner from a pinned
// snapshot — shared by the slacks route and the batch endpoint.
func slacksAt(snap *incsta.Snapshot, ci int, periodPs float64, level int) (map[string]any, error) {
	slacks, err := snap.EndpointSlacksAt(ci, periodPs*1e-12, level)
	if err != nil {
		return nil, err
	}
	wns := 0.0
	first := true
	out := make(map[string]float64, len(slacks))
	for key, sl := range slacks {
		out[key] = sl * 1e12
		if first || sl*1e12 < wns {
			wns = sl * 1e12
			first = false
		}
	}
	return map[string]any{
		"version": snap.Version(), "period_ps": periodPs, "level": level,
		"wns_ps": wns, "slacks_ps": out,
	}, nil
}

func (s *Server) handleSlacks(w http.ResponseWriter, r *http.Request) {
	d, ok := s.design(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", r.PathValue("name"))
		return
	}
	s.serveSlacks(w, r, d.eng.Snapshot(), s.clusterSeq(d))
}

func (s *Server) serveSlacks(w http.ResponseWriter, r *http.Request, snap *incsta.Snapshot, seq uint64) {
	periodPs, err := strconv.ParseFloat(r.URL.Query().Get("period_ps"), 64)
	if err != nil || periodPs <= 0 {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "period_ps must be a positive number")
		return
	}
	level := 3
	if q := r.URL.Query().Get("level"); q != "" {
		if level, err = strconv.Atoi(q); err != nil {
			httpError(w, http.StatusBadRequest, codeInvalidRequest, "level must be an integer sigma level")
			return
		}
	}
	ci, err := cornerOf(snap, r.URL.Query().Get("corner"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	payload, err := slacksAt(snap, ci, periodPs, level)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "slacks: %v", err)
		return
	}
	if seq != 0 {
		payload["version"] = seq
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	d, ok := s.design(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", r.PathValue("name"))
		return
	}
	if s.node != nil {
		// Fenced ex-owner: ownership moved to a higher epoch; the retry is
		// routed to the new owner. Minority partition: accepting the edit
		// could diverge from a majority-side owner — refuse.
		if d.fenced.Load() {
			li, _ := s.leases.Current(d.name)
			retryAfter(w, time.Second)
			httpError(w, http.StatusServiceUnavailable, codeStaleEpoch,
				"design ownership moved (lease owner %s, epoch %d); retry", li.Owner, li.Epoch)
			return
		}
		if !s.node.HasMajority() {
			retryAfter(w, time.Second)
			httpError(w, http.StatusServiceUnavailable, codePeerUnavailable,
				"this node cannot reach a cluster majority; refusing writes")
			return
		}
	}
	var req EditRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad edit request", err)
		return
	}
	switch req.Op {
	case incsta.OpResize, incsta.OpSwap, incsta.OpSetInputSlew, incsta.OpSetNetParasitics:
	default:
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "unknown op %q", req.Op)
		return
	}
	// The wire request becomes the engine's stable Edit record — exactly the
	// bytes the design's WAL appends and recovery replays.
	ed := incsta.Edit{
		Op: req.Op, Gate: req.Gate, Strength: req.Strength, Cell: req.Cell,
		Net: req.Net, Slew: req.SlewPs * 1e-12, Tree: req.Tree,
	}
	rep, seq, err := d.submit(r.Context(), ed)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			mAdmissionRejected.Inc()
		}
		status, code := editStatus(err)
		if status == http.StatusServiceUnavailable {
			retryAfter(w, time.Second)
		}
		httpError(w, status, code, "%v", err)
		return
	}
	// The version this edit produced, not whatever the design reads by the
	// time the reply is written: concurrent edits never report the same one.
	version := rep.Version
	if s.node != nil {
		// Cluster mode reports the edit's replication seq + 1: identical to
		// the engine version on an owner that never restarted, and — unlike
		// the raw engine count, which resets on a rebuild — continuous
		// across promotion and recovery.
		version = seq + 1
	}
	writeJSON(w, http.StatusOK, EditResponse{
		Version: version, Op: rep.Op,
		Seeded: rep.Seeded, Reevaluated: rep.Reevaluated,
		Cut: rep.Cut, Endpoints: rep.Endpoints,
	})
}

// maxBatchQueries bounds one batch request; larger batches are rejected with
// 413 batch_too_large rather than silently truncated.
const maxBatchQueries = 256

// BatchQuery is one query of a batch request. Kind selects the view
// ("summary", "paths" or "slacks"); the remaining fields mirror the query
// parameters of the corresponding single-query route.
type BatchQuery struct {
	Kind     string  `json:"kind"`
	Corner   string  `json:"corner,omitempty"`
	K        int     `json:"k,omitempty"`         // paths: how many (default 5)
	PeriodPs float64 `json:"period_ps,omitempty"` // slacks: clock period
	Level    *int    `json:"level,omitempty"`     // slacks: sigma level (default 3)
}

// BatchRequest asks for several views of one design at one consistent
// version: the server pins a single snapshot and serves every query from it.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchResult is the outcome of one batch query: either a result payload or
// a per-query error (a bad query does not fail its siblings).
type BatchResult struct {
	Kind   string       `json:"kind"`
	Corner string       `json:"corner,omitempty"`
	Result any          `json:"result,omitempty"`
	Error  *ErrorDetail `json:"error,omitempty"`
}

// BatchResponse carries every result plus the snapshot version they were all
// served from.
type BatchResponse struct {
	Version uint64        `json:"version"`
	Results []BatchResult `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	d, ok := s.design(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", r.PathValue("name"))
		return
	}
	// One snapshot serves the whole batch: every answer reflects the same
	// edit version, however many edits land while we iterate.
	s.serveBatch(w, r, d, d.eng.Snapshot(), s.clusterSeq(d))
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, d *design, snap *incsta.Snapshot, seq uint64) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad batch request", err)
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		httpError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			"batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries)
		return
	}

	// Admission: a batch weighs its query count, so one huge batch cannot
	// slip past a limiter tuned for single queries.
	weight := int64(len(req.Queries))
	if !s.adm.acquire(r.Context(), weight) {
		mAdmissionRejected.Inc()
		retryAfter(w, s.adm.maxWait)
		httpError(w, http.StatusServiceUnavailable, codeOverloaded, "server at concurrent-query capacity")
		return
	}
	defer s.adm.release(weight)

	version := snap.Version()
	if seq != 0 {
		version = seq
	}
	resp := BatchResponse{Version: version, Results: make([]BatchResult, len(req.Queries))}
	for i, q := range req.Queries {
		// A disconnected or timed-out client gets no response; stop burning
		// CPU on the remaining queries.
		if err := r.Context().Err(); err != nil {
			return
		}
		br := BatchResult{Kind: q.Kind, Corner: q.Corner}
		br.Result, br.Error = s.batchQuery(d, snap, q)
		resp.Results[i] = br
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchQuery answers one query of a batch from the pinned snapshot.
func (s *Server) batchQuery(d *design, snap *incsta.Snapshot, q BatchQuery) (any, *ErrorDetail) {
	ci, err := cornerOf(snap, q.Corner)
	if err != nil {
		return nil, &ErrorDetail{Code: codeInvalidRequest, Message: err.Error()}
	}
	switch q.Kind {
	case "summary":
		sum, err := s.summarizeAt(d, snap, ci)
		if err != nil {
			return nil, &ErrorDetail{Code: codeInternal, Message: err.Error()}
		}
		return sum, nil
	case "paths":
		k := q.K
		if k == 0 {
			k = 5
		}
		if k < 0 {
			return nil, &ErrorDetail{Code: codeInvalidRequest, Message: "k must be a positive integer"}
		}
		payload, err := s.pathsAt(d, snap, ci, k)
		if err != nil {
			return nil, &ErrorDetail{Code: codeInternal, Message: "paths: " + err.Error()}
		}
		return payload, nil
	case "slacks":
		if q.PeriodPs <= 0 {
			return nil, &ErrorDetail{Code: codeInvalidRequest, Message: "period_ps must be a positive number"}
		}
		level := 3
		if q.Level != nil {
			level = *q.Level
		}
		payload, err := slacksAt(snap, ci, q.PeriodPs, level)
		if err != nil {
			return nil, &ErrorDetail{Code: codeInvalidRequest, Message: "slacks: " + err.Error()}
		}
		return payload, nil
	default:
		return nil, &ErrorDetail{Code: codeInvalidRequest,
			Message: fmt.Sprintf("unknown query kind %q (want summary, paths or slacks)", q.Kind)}
	}
}
