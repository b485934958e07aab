package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/incsta"
	"repro/internal/obs"
	"repro/internal/wal"
)

// hopHeader carries the comma-separated chain of nodes a cluster-internal
// forward has passed through. One extra hop is allowed when it points at the
// known lease owner (ring and lease views can legitimately disagree during a
// handoff); anything longer means the views have diverged and the client
// gets a retryable wrong_node error instead of a forwarding loop.
const hopHeader = "X-Timingd-Forward"

// replicaRefreshEvery re-ships a replica's snapshot after this many idle
// replication ticks even when the owner believes it is caught up — the
// self-healing path for a replica that restarted (losing its in-memory
// copy) without the owner noticing.
const replicaRefreshEvery = 10

// replicaCompactEvery folds a durable replica's edit tail into a fresh
// snapshot after this many replicated edits, keeping its WAL short and a
// post-promotion recovery fast.
const replicaCompactEvery = 256

// errStaleEpoch is the in-process form of a stale_epoch rejection: a peer
// holding a higher ownership epoch refused our traffic. The design that hit
// it is fenced — it must stop acting as owner.
var errStaleEpoch = errors.New("server: stale ownership epoch (design fenced)")

// errUnreplicated reports an edit that applied locally but was acknowledged
// by no replica: durability on a single node only. The edit is NOT rolled
// back (at-least-once; replicas re-converge from the next snapshot ship) —
// the client sees a retryable 503 and must treat the edit as in doubt.
var errUnreplicated = errors.New("server: edit not acknowledged by any replica")

// replicaState is one design shipped to this node by its owner, served
// read-only. With a store attached the shipped snapshot and the replicated
// edit tail are also persisted under <root>/replicas/, so a restarted
// replica can be promoted from durable state without the (possibly dead)
// owner's help.
type replicaState struct {
	mu       sync.Mutex
	eng      *incsta.Engine // publishes version seq+1, like the owner's
	epoch    uint64         // ownership epoch the state was shipped under
	from     string         // owner that shipped it (introspection)
	log      *wal.Log       // nil = in-memory replica
	ingested int            // edits appended since the last durable compaction
}

// view returns the engine, the copy's seq and its epoch coherently. The
// engine is nil after the state was transferred away by a promotion or
// discarded.
func (rs *replicaState) view() (*incsta.Engine, uint64, uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.eng == nil {
		return nil, 0, rs.epoch
	}
	return rs.eng, rs.seqLocked(), rs.epoch
}

// seqLocked is the copy's seq: the owner's edits its published state
// includes. Called with rs.mu held and rs.eng set.
func (rs *replicaState) seqLocked() uint64 { return rs.eng.Snapshot().Version() - 1 }

// --- versioned internal wire types (see API.md "Cluster-internal API") ---

// replicateRequest is the POST /v1/internal/replicate body: a full design
// snapshot at one edit sequence, or a tombstone. Every shipment names its
// sender and the ownership epoch it ships under; a receiver that has adopted
// a higher epoch rejects it with 409 stale_epoch.
type replicateRequest struct {
	Seq      uint64          `json:"seq"`
	Epoch    uint64          `json:"epoch"`
	From     string          `json:"from,omitempty"`
	Delete   bool            `json:"delete,omitempty"`
	Name     string          `json:"name,omitempty"` // delete only; otherwise Snapshot.Name
	Snapshot *designSnapshot `json:"snapshot,omitempty"`
}

// replicateResponse acknowledges a shipment with the replica's resulting
// sequence (equal to the request's on apply; the newer local one on skip).
type replicateResponse struct {
	Design  string `json:"design"`
	Seq     uint64 `json:"seq"`
	Applied bool   `json:"applied"`
}

// editsRequest is the POST /v1/internal/edits body: one applied edit,
// streamed synchronously from the owner to each replica before the client's
// edit is acknowledged. Seq must be exactly the replica's sequence + 1 under
// the same epoch; anything else is answered applied=false and the owner
// falls back to a full snapshot ship.
type editsRequest struct {
	Design  string          `json:"design"`
	Seq     uint64          `json:"seq"`
	Epoch   uint64          `json:"epoch"`
	From    string          `json:"from,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// editsResponse acknowledges one streamed edit.
type editsResponse struct {
	Design  string `json:"design"`
	Seq     uint64 `json:"seq"`
	Applied bool   `json:"applied"`
}

// leaseClaimRequest is the POST /v1/internal/lease/claim body: a candidate
// asking this node to promise it ownership of Design at Epoch. Basis is how
// caught-up the candidate's copy is — a node whose own copy is strictly
// ahead refuses, so the most-caught-up replica wins the election.
type leaseClaimRequest struct {
	Design     string `json:"design"`
	Epoch      uint64 `json:"epoch"`
	From       string `json:"from"`
	BasisEpoch uint64 `json:"basis_epoch"`
	BasisSeq   uint64 `json:"basis_seq"`
}

// leaseClaimResponse answers a claim: whether the promise was granted, this
// node's own basis for the design, and its current lease view (so a refused
// candidate learns who owns the design and at which epoch).
type leaseClaimResponse struct {
	Design     string            `json:"design"`
	Granted    bool              `json:"granted"`
	BasisEpoch uint64            `json:"basis_epoch"`
	BasisSeq   uint64            `json:"basis_seq"`
	Lease      cluster.LeaseInfo `json:"lease"`
}

// leaseAdoptRequest is the POST /v1/internal/lease/adopt body: an election
// winner announcing the lease it now holds. Advisory — replication traffic
// carries the same epoch and eventually teaches every replica — but members
// outside the design's replica set never see that traffic, and without the
// announcement they would keep routing to the dead previous owner.
type leaseAdoptRequest struct {
	Design string `json:"design"`
	Owner  string `json:"owner"`
	Epoch  uint64 `json:"epoch"`
	From   string `json:"from,omitempty"`
}

// membersRequest is the POST /v1/internal/members body: the sender's full
// membership list, applied wholesale (additions and removals) and never
// re-broadcast by the receiver.
type membersRequest struct {
	Members []string `json:"members"`
	From    string   `json:"from,omitempty"`
}

// staleEpochBody is the 409 stale_epoch response payload: the standard
// error envelope plus the receiver's current lease, so the fenced sender
// can adopt it and stand down.
type staleEpochBody struct {
	Error ErrorDetail `json:"error"`
	Owner string      `json:"owner,omitempty"`
	Epoch uint64      `json:"epoch"`
}

// writeStaleEpoch rejects a cluster-internal request carrying an epoch below
// this node's adopted lease.
func (s *Server) writeStaleEpoch(w http.ResponseWriter, design string, li cluster.LeaseInfo) {
	s.node.NoteFenced()
	writeJSON(w, http.StatusConflict, staleEpochBody{
		Error: ErrorDetail{
			Code: codeStaleEpoch,
			Message: fmt.Sprintf("stale epoch for design %q: current lease is owner %s epoch %d",
				design, li.Owner, li.Epoch),
		},
		Owner: li.Owner,
		Epoch: li.Epoch,
	})
}

// --- cluster-aware router ---

// designPathName extracts the design name from a design-scoped path
// (/v1/designs/{name}[/...]).
func designPathName(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/designs/")
	if !ok || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	name, err := url.PathUnescape(rest)
	if err != nil || name == "" {
		return "", false
	}
	return name, true
}

// isReadRequest reports whether a design-scoped request is a read a replica
// may serve: any GET, plus the batch POST.
func isReadRequest(r *http.Request) bool {
	return r.Method == http.MethodGet ||
		(r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/batch"))
}

// routeCluster is the Handler entry point in cluster mode. Requests outside
// /v1/designs/{name} go straight to the local mux; design-scoped requests are
// routed by lease first, ring second: a design this node owns (loaded, not
// fenced) is served locally, reads on a held replica copy are served from
// it, and everything else is forwarded to the lease owner — falling back to
// the ring owner while no lease exists yet.
func (s *Server) routeCluster(w http.ResponseWriter, r *http.Request) {
	name, ok := designPathName(r.URL.Path)
	if !ok {
		s.mux.ServeHTTP(w, r)
		return
	}
	if d, loaded := s.design(name); loaded && !d.fenced.Load() {
		s.mux.ServeHTTP(w, r)
		return
	}
	owner, isOwner, isReplica := s.node.Role(name)
	if (isOwner || isReplica) && isReadRequest(r) && s.replica(name) != nil {
		// Replica (or failover) read path: serve the shipped copy locally,
		// stale rather than a hop or a 404.
		s.serveReplica(w, r, name)
		return
	}
	self := s.node.Self()
	target := ""
	li, haveLease := s.leases.Current(name)
	switch {
	case haveLease && li.Owner != "" && li.Owner != self && s.node.AliveMember(li.Owner):
		target = li.Owner
	case (!haveLease || li.Owner == "") && !isOwner:
		target = owner
	case (!haveLease || li.Owner == "") && isOwner:
		// Ring owner with no lease: fresh-design operations (PUT load, 404s
		// for the rest) are handled locally.
		s.mux.ServeHTTP(w, r)
		return
	}
	if target == "" || target == self {
		// The lease owner is this node but the design is not loaded (recovery
		// or promotion in progress), or the owner is dead and no replica has
		// won the next epoch yet.
		retryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, codePeerUnavailable,
			"ownership of design %q is in transition; retry", name)
		return
	}
	s.forward(w, r, target, name)
}

// replica returns this node's shipped copy of name, nil if none.
func (s *Server) replica(name string) *replicaState {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.reps[name]
}

// serveReplica answers a read from the shipped copy, with the same
// ready-gating, timeout, admission and metrics treatment the mux applies.
// The copy's engine counts versions like the owner's, so every answer
// reports the version of the snapshot it was computed from.
func (s *Server) serveReplica(w http.ResponseWriter, r *http.Request, name string) {
	t0 := time.Now()
	sub := strings.TrimPrefix(r.URL.Path, "/v1/designs/")
	if i := strings.IndexByte(sub, '/'); i >= 0 {
		sub = sub[i:]
	} else {
		sub = ""
	}
	pattern := r.Method + " /v1/designs/{name}" + sub
	serve, ok := s.reads[pattern]
	if !ok {
		httpError(w, http.StatusNotFound, codeUnknownRoute, "no such route: %s %s", r.Method, r.URL.Path)
		s.met.observe(r, r.Method+" "+r.URL.Path, t0)
		return
	}
	defer s.met.observe(r, pattern, t0)
	if !s.ready.Load() {
		retryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, codeNotReady, "recovery in progress")
		return
	}
	if s.reqTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	var eng *incsta.Engine
	if rep := s.replica(name); rep != nil {
		eng, _, _ = rep.view()
	}
	if eng == nil {
		httpError(w, http.StatusNotFound, codeNotFound, "no design %q", name)
		return
	}
	// A replica-held design gets a thin design shell: the read routes only
	// touch name and engine; its edit machinery stays nil because edits
	// never route here.
	d := &design{name: name, eng: eng}
	s.admittedRead(pattern, func(w http.ResponseWriter, r *http.Request) { serve(w, r, d) })(w, r)
}

// forward routes a request this node cannot serve to target (the design's
// lease or ring owner): a 307 redirect by default, a proxy hop behind
// -cluster-proxy.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, target, name string) {
	t0 := time.Now()
	pattern := "forward " + r.Method
	defer s.met.observe(r, pattern, t0)
	if hops := r.Header.Get(hopHeader); hops != "" {
		// A forwarded request is re-forwarded at most once, and only toward
		// the known alive lease owner — the legitimate ring/lease divergence
		// window during an ownership handoff. Everything else is a loop.
		li, ok := s.leases.Current(name)
		allowed := ok && li.Owner == target && s.node.AliveMember(target) &&
			!strings.Contains(hops, ",")
		if !allowed {
			httpError(w, http.StatusMisdirectedRequest, codeWrongNode,
				"node %s does not own this design (forwarded via %s; ring views diverged, retry)",
				s.node.Self(), hops)
			return
		}
	}
	if !s.ready.Load() {
		retryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, codeNotReady, "recovery in progress")
		return
	}
	if target == "" {
		retryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, codePeerUnavailable,
			"no alive owner for this design")
		return
	}
	s.node.NoteForward(target)
	if !s.node.Proxy() {
		loc := target + r.URL.RequestURI()
		w.Header().Set("Location", loc)
		writeJSON(w, http.StatusTemporaryRedirect, map[string]string{
			"owner": target, "location": loc,
		})
		return
	}
	br := s.node.Breaker(target)
	if br != nil && !br.Allow() {
		// Retry-After tracks the breaker's half-open deadline: the earliest
		// moment a retry could actually reach the peer.
		retryAfter(w, br.RetryAfter())
		httpError(w, http.StatusServiceUnavailable, codePeerUnavailable,
			"owner %s unavailable (circuit open)", target)
		return
	}
	ctx := r.Context()
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	// The proxy hop is its own span: the owner's request span becomes its
	// child via the refreshed traceparent on the outgoing request.
	ctx, span := s.tracer.StartSpan(ctx, "proxy_forward",
		obs.A("owner", target), obs.A("method", r.Method))
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, r.Method, target+r.URL.RequestURI(), r.Body)
	if err != nil {
		httpErrorDetail(w, http.StatusInternalServerError, codeInternal, "building forward request", err)
		return
	}
	req.Header = r.Header.Clone()
	hops := r.Header.Get(hopHeader)
	if hops != "" {
		hops += ","
	}
	req.Header.Set(hopHeader, hops+s.node.Self())
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Propagatable() {
		req.Header.Set(headerTraceparent, tc.Traceparent())
	}
	resp, err := s.node.Client().Do(req)
	if err != nil {
		if br != nil {
			br.Record(false)
		}
		s.node.NoteForwardError(target)
		// The failure just opened (or re-opened) the breaker; hint the retry
		// at its cooldown.
		if br != nil {
			retryAfter(w, br.RetryAfter())
		} else {
			retryAfter(w, time.Second)
		}
		httpError(w, http.StatusBadGateway, codePeerUnavailable,
			"forwarding to owner %s failed: %v", target, err)
		return
	}
	defer resp.Body.Close()
	if br != nil {
		br.Record(resp.StatusCode < http.StatusInternalServerError)
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		s.node.NoteForwardError(target)
	}
	span.SetAttr("status", resp.StatusCode)
	// The peer's headers win over any the local middleware pre-set (its
	// Retry-After, its echoed correlation headers): replace per key rather
	// than append, or the client would see duplicate X-Request-ID /
	// traceparent lines on proxied responses.
	for k, vs := range resp.Header {
		w.Header().Del(k)
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// --- replication: owner side ---

// shipState tracks per-peer replication progress of one owned design:
// which edit sequence each peer has acknowledged and when it last acked.
// Shared by the synchronous edit stream and the periodic snapshot loop.
type shipState struct {
	mu       sync.Mutex
	acked    map[string]uint64
	lastShip map[string]time.Time
}

func newShipState() *shipState {
	return &shipState{acked: map[string]uint64{}, lastShip: map[string]time.Time{}}
}

// note records peer's acknowledgement of seq.
func (sh *shipState) note(peer string, seq uint64) {
	sh.mu.Lock()
	if seq > sh.acked[peer] {
		sh.acked[peer] = seq
	}
	sh.lastShip[peer] = time.Now()
	sh.mu.Unlock()
}

// progress returns peer's acked sequence and last-ack time.
func (sh *shipState) progress(peer string) (uint64, time.Time) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.acked[peer], sh.lastShip[peer]
}

// snapshot copies the full acked map (introspection).
func (sh *shipState) snapshot() map[string]uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]uint64, len(sh.acked))
	for p, s := range sh.acked {
		out[p] = s
	}
	return out
}

// attachCluster wires an owned design into the replication machinery: the
// per-peer progress table and the synchronous edit-ship hook the writer
// loop calls after each applied edit. Must run before the design is
// published.
func (s *Server) attachCluster(d *design) {
	if s.node == nil {
		return
	}
	d.shp = newShipState()
	d.ship = func(seq uint64, payload []byte) error {
		return s.shipEdit(d, seq, payload)
	}
}

// replicaTargets is the set of alive peers that should hold a copy of name:
// its ring placement (owner slot plus replicas) minus this node. A promoted
// owner that is no longer the ring owner ships to the ring owner too, which
// is what lets ownership hand back cleanly once that node catches up.
func (s *Server) replicaTargets(name string) []string {
	owner, replicas := s.node.Placement(name)
	self := s.node.Self()
	out := make([]string, 0, len(replicas)+1)
	for _, p := range append([]string{owner}, replicas...) {
		if p == "" || p == self || !s.node.AliveMember(p) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// shipEdit synchronously replicates one applied edit to the design's
// replica set before the client's acknowledgement. Runs on the design's
// writer goroutine. A replica that did not apply the edit is repaired
// inline with a full snapshot ship before its ack counts; a stale_epoch
// rejection fences this owner and fails the edit; zero acknowledgements
// from a non-empty replica set fail the edit with errUnreplicated.
func (s *Server) shipEdit(d *design, seq uint64, payload []byte) error {
	if d.fenced.Load() {
		// A fence landed between the edit's apply and its ship: a higher
		// ownership epoch exists somewhere, so this node must not
		// acknowledge the write.
		return errStaleEpoch
	}
	targets := s.replicaTargets(d.name)
	if len(targets) == 0 {
		return nil
	}
	epoch := d.epoch.Load()
	body, err := json.Marshal(editsRequest{
		Design: d.name, Seq: seq, Epoch: epoch, From: s.node.Self(), Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("server: encode edit ship: %w", err)
	}
	acks := 0
	for _, peer := range targets {
		br := s.node.Breaker(peer)
		if br != nil && !br.Allow() {
			continue
		}
		ack, err := s.postEdits(context.Background(), peer, d.name, body)
		if errors.Is(err, errStaleEpoch) {
			// A higher epoch exists: we are no longer the owner. Fence; the
			// already-applied edit dies with the fencing.
			s.fenceFromStale(d, epoch+1)
			return errStaleEpoch
		}
		if err != nil {
			if br != nil {
				br.Record(false)
			}
			s.node.NoteForwardError(peer)
			continue
		}
		if br != nil {
			br.Record(true)
		}
		if !ack.Applied {
			// The replica did not store this edit — a gap, an epoch change,
			// or a copy fed divergent by a zombie ex-owner (which can report
			// Seq >= seq without ever holding our edit). Whatever sequence it
			// reports, a non-applied response never stands in for an ack:
			// repair with a full snapshot ship and count the ack only if that
			// lands. captureLocked (not capture) — we ARE the writer
			// goroutine capture would wait on.
			snap, err := d.captureLocked()
			if err == nil {
				err = s.shipSnapshotTo(context.Background(), d.name, snap, peer)
			}
			if err != nil {
				if errors.Is(err, errStaleEpoch) {
					s.fenceFromStale(d, epoch+1)
					return errStaleEpoch
				}
				continue
			}
		}
		acks++
		d.shp.note(peer, seq)
		s.node.NoteShipped(peer)
		s.node.SetReplicationLag(peer, 0)
	}
	if d.fenced.Load() {
		// Fenced while shipping (e.g. a claim was granted locally mid-loop):
		// the replica set may already be rebasing onto a higher epoch, so the
		// collected acks no longer guarantee the edit survives.
		return errStaleEpoch
	}
	if acks == 0 {
		return errUnreplicated
	}
	return nil
}

// startShipping launches the snapshot-shipping loop for a design when a
// cluster node is attached. The loop exits with the design.
func (s *Server) startShipping(d *design) {
	if s.node == nil {
		return
	}
	go s.shipLoop(d)
}

func (s *Server) shipLoop(d *design) {
	t := time.NewTicker(s.node.ReplicateInterval())
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-t.C:
			s.shipDesign(d)
		}
	}
}

// shipDesign publishes d's current snapshot to every replica target that is
// behind (or stale past the refresh window). Shipping is idempotent — the
// replica skips sequences it already has — and per-peer circuit breakers
// keep a dead replica from stalling the loop.
func (s *Server) shipDesign(d *design) {
	if d.fenced.Load() {
		return // fenced ex-owner: stop publishing
	}
	targets := s.replicaTargets(d.name)
	if len(targets) == 0 {
		return
	}
	snap, err := d.capture()
	if err != nil {
		return // design closed or failed
	}
	seq := snap.EditSeq
	iv := s.node.ReplicateInterval()
	// Shipments are head-sampled like user requests: a sampled shipment's
	// span links owner→replica through the traceparent postReplicate sends.
	shipCtx := context.Background()
	if s.sampleRate > 0 && rand.Float64() < s.sampleRate {
		shipCtx = obs.ContextWithTrace(shipCtx, obs.NewTraceContext(true))
	}
	var payload []byte
	for _, peer := range targets {
		acked, last := d.shp.progress(peer)
		s.node.SetReplicationLag(peer, float64(seq-min64(acked, seq)))
		fresh := time.Since(last) < replicaRefreshEvery*iv
		if acked >= seq && fresh {
			continue
		}
		br := s.node.Breaker(peer)
		if br != nil && !br.Allow() {
			continue
		}
		if payload == nil {
			var err error
			if payload, err = json.Marshal(replicateRequest{
				Seq: seq, Epoch: snap.Epoch, From: s.node.Self(), Snapshot: snap,
			}); err != nil {
				return
			}
		}
		ctx, span := s.tracer.StartSpan(shipCtx, "replicate_ship",
			obs.A("design", d.name), obs.A("peer", peer), obs.A("seq", seq))
		resp, err := s.postReplicate(ctx, peer, d.name, payload)
		span.SetAttr("ok", err == nil)
		span.End()
		if errors.Is(err, errStaleEpoch) {
			s.fenceFromStale(d, snap.Epoch+1)
			return
		}
		if err != nil {
			if br != nil {
				br.Record(false)
			}
			s.node.NoteForwardError(peer)
			continue
		}
		if br != nil {
			br.Record(true)
		}
		d.shp.note(peer, resp.Seq)
		s.node.NoteShipped(peer)
		s.node.SetReplicationLag(peer, float64(seq-min64(resp.Seq, seq)))
	}
}

// shipSnapshotTo ships one full snapshot to one peer (the inline gap-repair
// path of the synchronous edit stream).
func (s *Server) shipSnapshotTo(ctx context.Context, name string, snap *designSnapshot, peer string) error {
	payload, err := json.Marshal(replicateRequest{
		Seq: snap.EditSeq, Epoch: snap.Epoch, From: s.node.Self(), Snapshot: snap,
	})
	if err != nil {
		return err
	}
	_, err = s.postReplicate(ctx, peer, name, payload)
	return err
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// internalTimeout bounds one cluster-internal POST.
func (s *Server) internalTimeout() time.Duration {
	timeout := 2 * s.node.ReplicateInterval()
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	return timeout
}

// postInternal POSTs one cluster-internal payload and decodes the 200-OK
// response into out. A 409 is parsed as a stale_epoch rejection: the
// receiver's lease is adopted locally and errStaleEpoch returned.
func (s *Server) postInternal(ctx context.Context, peer, path, kind, design string, payload []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, s.internalTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.InternalHeader, kind)
	req.Header.Set(cluster.PeerHeader, s.node.Self())
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Propagatable() {
		req.Header.Set(headerTraceparent, tc.Traceparent())
	}
	resp, err := s.node.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict && design != "" {
		var stale staleEpochBody
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&stale); err == nil &&
			stale.Error.Code == codeStaleEpoch {
			if stale.Epoch > 0 {
				s.leases.Adopt(design, stale.Owner, stale.Epoch)
				s.node.SetLeaseEpoch(design, stale.Epoch)
			}
			return fmt.Errorf("%s %s: %w", kind, peer, errStaleEpoch)
		}
		return fmt.Errorf("%s to %s: status 409", kind, peer)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s to %s: status %d: %s", kind, peer, resp.StatusCode, body)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postReplicate ships one replicate payload to peer and decodes the ack.
func (s *Server) postReplicate(ctx context.Context, peer, design string, payload []byte) (*replicateResponse, error) {
	var ack replicateResponse
	if err := s.postInternal(ctx, peer, "/v1/internal/replicate", "replicate", design, payload, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// postEdits streams one edit to peer and decodes the ack.
func (s *Server) postEdits(ctx context.Context, peer, design string, payload []byte) (*editsResponse, error) {
	var ack editsResponse
	if err := s.postInternal(ctx, peer, "/v1/internal/edits", "edits", design, payload, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// aliveOthers is every alive member except this node.
func (s *Server) aliveOthers() []string {
	self := s.node.Self()
	var out []string
	for _, m := range s.node.Members() {
		if m == self || !s.node.AliveMember(m) {
			continue
		}
		out = append(out, m)
	}
	return out
}

// broadcastDelete tombstones a deleted design on every alive member (not
// just its current placement — promotions may have scattered copies).
func (s *Server) broadcastDelete(name string, epoch uint64) {
	s.sendTombstones(name, epoch, s.aliveOthers())
}

// sendTombstones ships a delete tombstone for name at epoch to peers.
func (s *Server) sendTombstones(name string, epoch uint64, peers []string) {
	payload, err := json.Marshal(replicateRequest{
		Delete: true, Name: name, Epoch: epoch, From: s.node.Self(),
	})
	if err != nil {
		return
	}
	for _, peer := range peers {
		_, _ = s.postReplicate(context.Background(), peer, "", payload)
	}
}

// --- replication: replica side ---

// handleReplicate accepts a shipped snapshot (or tombstone) from a design's
// owner. Idempotent by (epoch, seq); shipments below the adopted lease
// epoch are rejected with 409 stale_epoch — that rejection is what fences a
// partitioned ex-owner. With a store attached the snapshot is persisted
// under replicas/ and the replica's WAL reset to it.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req replicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad replicate request", err)
		return
	}
	if req.From == "" {
		req.From = r.Header.Get(cluster.PeerHeader)
	}
	if req.Delete {
		if req.Name == "" {
			httpError(w, http.StatusBadRequest, codeInvalidRequest, "delete needs a design name")
			return
		}
		if li, ok := s.leases.CheckEpoch(req.Name, req.Epoch); !ok {
			s.writeStaleEpoch(w, req.Name, li)
			return
		}
		s.dropReplica(req.Name)
		s.leases.Forget(req.Name)
		s.node.ClearLeaseEpoch(req.Name)
		writeJSON(w, http.StatusOK, replicateResponse{Design: req.Name, Applied: true})
		return
	}
	if req.Snapshot == nil || req.Snapshot.Name == "" {
		httpError(w, http.StatusBadRequest, codeInvalidRequest,
			"replicate needs a snapshot with a name")
		return
	}
	name := req.Snapshot.Name
	if li, ok := s.leases.CheckEpoch(name, req.Epoch); !ok {
		s.writeStaleEpoch(w, name, li)
		return
	}
	// A shipment can land on a node that still owns the design locally: a
	// strictly higher epoch means we lost ownership — fence, demote, and
	// accept the shipment as a replica. Anything else is a stale ex-owner
	// shipping at us.
	if d, loaded := s.design(name); loaded {
		cur := d.epoch.Load()
		if req.Epoch > cur {
			s.fenceOwned(d, true, req.Epoch)
		} else if !d.fenced.Load() {
			s.writeStaleEpoch(w, name, cluster.LeaseInfo{Owner: s.node.Self(), Epoch: cur})
			return
		}
	}
	if req.From != "" && s.leases.Adopt(name, req.From, req.Epoch) {
		s.node.SetLeaseEpoch(name, req.Epoch)
	}
	s.repMu.Lock()
	rep := s.reps[name]
	if rep == nil {
		rep = &replicaState{}
		s.reps[name] = rep
	}
	s.repMu.Unlock()
	// Serialize rebuilds per design; concurrent ships of other designs
	// proceed independently.
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.eng != nil && rep.epoch == req.Epoch && req.Seq <= rep.seqLocked() {
		s.node.NoteReplicateSkipped()
		writeJSON(w, http.StatusOK, replicateResponse{Design: name, Seq: rep.seqLocked(), Applied: false})
		return
	}
	if rep.eng != nil && rep.epoch > req.Epoch {
		s.writeStaleEpoch(w, name, cluster.LeaseInfo{Owner: rep.from, Epoch: rep.epoch})
		return
	}
	req.Snapshot.EditSeq, req.Snapshot.Epoch = req.Seq, req.Epoch
	eng, err := rebuildEngine(s.lib, req.Snapshot)
	if err != nil {
		httpErrorDetail(w, http.StatusUnprocessableEntity, codeUnprocessable,
			"rebuilding replicated design", err)
		return
	}
	if s.store != nil {
		if err := s.installReplicaLocked(rep, req.Snapshot); err != nil {
			s.discardReplicaLocked(name, rep)
			httpErrorDetail(w, http.StatusInternalServerError, codeInternal,
				"persisting replica snapshot", err)
			return
		}
	}
	rep.eng, rep.epoch, rep.from, rep.ingested = eng, req.Epoch, req.From, 0
	s.node.NoteReplicateApplied()
	writeJSON(w, http.StatusOK, replicateResponse{Design: name, Seq: req.Seq, Applied: true})
}

// installReplicaLocked makes a shipped snapshot the replica's durable state
// and opens its log at the snapshot's seq. A tail in the current log holds
// acknowledged edits, so the current copy is checkpointed first: install
// drops the log before the new snapshot lands. Called with rep.mu held.
func (s *Server) installReplicaLocked(rep *replicaState, snap *designSnapshot) error {
	if rep.log != nil && rep.log.Size() > 0 && rep.eng != nil {
		cur := snapshotOf(snap.Name, rep.eng)
		cur.Epoch = rep.epoch
		if err := s.store.checkpoint(replicaSub, cur, rep.log); err != nil {
			return err
		}
	}
	if rep.log != nil {
		rep.log.Close()
		rep.log = nil
	}
	lg, err := s.store.install(replicaSub, snap)
	if err != nil {
		return err
	}
	rep.log = lg
	return nil
}

// handleReplicateEdits applies one streamed edit to the local replica copy.
// The edit applies only at exactly (replica epoch, replica seq + 1); a
// duplicate acks as applied, a gap or epoch change acks applied=false and
// the owner repairs with a full snapshot ship. The edit takes the owner's
// path: apply, then (durable replicas) append to the WAL under the same seq
// with the owner's payload bytes, then publish. A replica whose append
// fails discards its copy, and the owner's repair ships a snapshot.
func (s *Server) handleReplicateEdits(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req editsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad edits request", err)
		return
	}
	if req.Design == "" || req.Seq == 0 || len(req.Payload) == 0 {
		httpError(w, http.StatusBadRequest, codeInvalidRequest,
			"edits needs a design, a non-zero seq and a payload")
		return
	}
	name := req.Design
	if req.From == "" {
		req.From = r.Header.Get(cluster.PeerHeader)
	}
	if li, ok := s.leases.CheckEpoch(name, req.Epoch); !ok {
		s.writeStaleEpoch(w, name, li)
		return
	}
	if d, loaded := s.design(name); loaded {
		cur := d.epoch.Load()
		if req.Epoch > cur {
			s.fenceOwned(d, true, req.Epoch)
		} else if !d.fenced.Load() {
			s.writeStaleEpoch(w, name, cluster.LeaseInfo{Owner: s.node.Self(), Epoch: cur})
			return
		}
	}
	if req.From != "" && s.leases.Adopt(name, req.From, req.Epoch) {
		s.node.SetLeaseEpoch(name, req.Epoch)
	}
	rep := s.replica(name)
	if rep == nil {
		// Never shipped here: ask for a snapshot.
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Applied: false})
		return
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.eng == nil {
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Applied: false})
		return
	}
	seq := rep.seqLocked()
	switch {
	case rep.epoch > req.Epoch:
		s.writeStaleEpoch(w, name, cluster.LeaseInfo{Owner: rep.from, Epoch: rep.epoch})
		return
	case rep.epoch < req.Epoch:
		// Our base predates the sender's epoch: need a fresh snapshot.
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Seq: seq, Applied: false})
		return
	case req.Seq <= seq:
		// Duplicate delivery (owner retry): already folded in.
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Seq: seq, Applied: true})
		return
	case req.Seq != seq+1:
		// Gap: the owner falls back to a snapshot ship.
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Seq: seq, Applied: false})
		return
	}
	var ed incsta.Edit
	if err := json.Unmarshal(req.Payload, &ed); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad edit payload", err)
		return
	}
	var commit func([]incsta.EditResult) error
	if rep.log != nil {
		commit = logCommit(rep.log, req.Payload)
	}
	res, err := rep.eng.ApplyBatch([]incsta.Edit{ed}, commit)
	if err != nil {
		// The copy's log failed, so its durable state may lack what its
		// engine holds: discard it.
		s.log().Warn("discarding replica after a wal failure", "design", name, "err", err)
		s.discardReplicaLocked(name, rep)
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Applied: false})
		return
	}
	if res[0].Err != nil {
		// The owner only ships edits it applied successfully; a divergent
		// rejection here means the copies disagree — ask for a snapshot.
		writeJSON(w, http.StatusOK, editsResponse{Design: name, Seq: seq, Applied: false})
		return
	}
	rep.from = req.From
	rep.ingested++
	if s.store != nil && rep.ingested >= replicaCompactEvery {
		snap := snapshotOf(name, rep.eng)
		snap.Epoch = rep.epoch
		if err := s.store.checkpoint(replicaSub, snap, rep.log); err == nil {
			rep.ingested = 0
		}
	}
	s.node.NoteReplicateApplied()
	writeJSON(w, http.StatusOK, editsResponse{Design: name, Seq: req.Seq, Applied: true})
}

// dropReplica removes a replica copy, its WAL handle and its durable state.
func (s *Server) dropReplica(name string) {
	if rep := s.replica(name); rep != nil {
		rep.mu.Lock()
		s.discardReplicaLocked(name, rep)
		rep.mu.Unlock()
	} else if s.store != nil {
		_ = s.store.remove(replicaSub, name)
	}
}

// discardReplicaLocked closes a replica copy's log, unpublishes the copy
// and removes its durable state. Called with rep.mu held.
func (s *Server) discardReplicaLocked(name string, rep *replicaState) {
	if rep.log != nil {
		rep.log.Close()
		rep.log = nil
	}
	rep.eng = nil
	s.repMu.Lock()
	if s.reps[name] == rep {
		delete(s.reps, name)
	}
	s.repMu.Unlock()
	if s.store != nil {
		_ = s.store.remove(replicaSub, name)
	}
}

// --- fencing ---

// fenceOwned marks an owned design fenced: an ownership epoch of at least
// `below` exists somewhere, so this node must stop acting as its owner —
// unless the design has meanwhile been re-promoted to `below` or higher, in
// which case the fencing evidence is stale and is ignored. With demote, the
// design is (asynchronously, once) closed, unpublished and its durable
// owner-side state removed — the node keeps serving it only through
// whatever replica copy it is shipped next. Without demote the design stays
// resident so the promotion loop can re-claim it at a higher epoch (the
// path a fenced owner takes when the claimant that fenced it died before
// finishing its takeover). Serialized against promoteOwned on d.fateMu:
// a stale fence racing a re-promotion could otherwise tear down the copy a
// just-announced lease points at, losing the design cluster-wide.
func (s *Server) fenceOwned(d *design, demote bool, below uint64) {
	d.fateMu.Lock()
	defer d.fateMu.Unlock()
	if below > 0 && d.epoch.Load() >= below {
		return
	}
	if !d.fenced.Swap(true) {
		s.log().Info("design fenced", "design", d.name, "epoch", d.epoch.Load(), "below", below, "demote", demote)
	}
	if demote && d.demoting.CompareAndSwap(false, true) {
		go s.demoteDesign(d)
	}
}

// fenceFromStale reacts to a stale_epoch rejection of this node's own
// replication traffic. The design is fenced either way, but it is demoted
// (closed, unpublished, durable owner state dropped) only when the lease —
// just adopted from the rejection body by postInternal — names a different
// live owner at an epoch above ours: real evidence a winner took over.
// A promise-level rejection (a replica that promised an epoch to a claim
// that may never win its quorum) fences without demoting, so the
// fenced-owner re-claim path can recover the design at a higher epoch if
// no winner ever emerges — demoting there would strand the design behind
// a lease that still names this node.
func (s *Server) fenceFromStale(d *design, below uint64) {
	li, _ := s.leases.Current(d.name)
	demote := li.Owner != "" && li.Owner != s.node.Self() &&
		s.node.AliveMember(li.Owner) && li.Epoch >= below
	s.fenceOwned(d, demote, below)
}

// demoteDesign unpublishes and closes a fenced ex-owner's design.
func (s *Server) demoteDesign(d *design) {
	s.mu.Lock()
	if s.designs[d.name] == d {
		delete(s.designs, d.name)
	}
	s.mu.Unlock()
	d.close()
	if s.store != nil {
		_ = s.store.remove(ownerSub, d.name)
	}
	s.log().Info("design demoted", "design", d.name, "epoch", d.epoch.Load())
}

// --- lease claims and promotion ---

// localBasis is how caught-up this node's best copy of name is, as a
// lexicographic (epoch, seq) pair over both the owned design (fenced or
// not) and the replica copy.
func (s *Server) localBasis(name string) (epoch, seq uint64) {
	if d, ok := s.design(name); ok {
		epoch, seq = d.epoch.Load(), d.seq()
	}
	if rep := s.replica(name); rep != nil {
		if eng, rseq, repoch := rep.view(); eng != nil {
			if repoch > epoch || (repoch == epoch && rseq > seq) {
				epoch, seq = repoch, rseq
			}
		}
	}
	return epoch, seq
}

// basisAtLeast reports (ae, as) >= (be, bs) lexicographically.
func basisAtLeast(ae, as, be, bs uint64) bool {
	return ae > be || (ae == be && as >= bs)
}

// handleLeaseClaim answers a candidate's ownership claim. The promise is
// granted iff the candidate's copy is at least as caught-up as ours AND the
// lease table accepts the epoch (strictly above everything adopted or
// promised — each epoch is promised at most once, which is the whole safety
// argument). Granting a claim for a design we own fences it without
// demoting: if the claimant dies before taking over, our promotion loop
// re-claims at a higher epoch and un-fences.
func (s *Server) handleLeaseClaim(w http.ResponseWriter, r *http.Request) {
	var req leaseClaimRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad lease claim", err)
		return
	}
	if req.Design == "" || req.Epoch == 0 || req.From == "" {
		httpError(w, http.StatusBadRequest, codeInvalidRequest,
			"lease claim needs a design, a non-zero epoch and a sender")
		return
	}
	basisE, basisS := s.localBasis(req.Design)
	granted := false
	if basisAtLeast(req.BasisEpoch, req.BasisSeq, basisE, basisS) &&
		s.leases.Promise(req.Design, req.Epoch) {
		granted = true
		if d, ok := s.design(req.Design); ok && req.From != s.node.Self() {
			s.fenceOwned(d, false, req.Epoch)
		}
	}
	li, _ := s.leases.Current(req.Design)
	writeJSON(w, http.StatusOK, leaseClaimResponse{
		Design: req.Design, Granted: granted,
		BasisEpoch: basisE, BasisSeq: basisS, Lease: li,
	})
}

// postClaim sends one lease claim to peer.
func (s *Server) postClaim(ctx context.Context, peer string, payload []byte) (*leaseClaimResponse, error) {
	var resp leaseClaimResponse
	if err := s.postInternal(ctx, peer, "/v1/internal/lease/claim", "lease-claim", "", payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// handleLeaseAdopt folds an election winner's announcement into the local
// lease table, fencing (and demoting) a resident copy the announcement
// supersedes. An announcement below our own adopted epoch is answered 409
// stale_epoch so a zombie winner stands down.
func (s *Server) handleLeaseAdopt(w http.ResponseWriter, r *http.Request) {
	var req leaseAdoptRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad lease announcement", err)
		return
	}
	if req.Design == "" || req.Owner == "" || req.Epoch == 0 {
		httpError(w, http.StatusBadRequest, codeInvalidRequest,
			"lease announcement needs a design, an owner and a non-zero epoch")
		return
	}
	if li, ok := s.leases.CheckEpoch(req.Design, req.Epoch); !ok {
		s.writeStaleEpoch(w, req.Design, li)
		return
	}
	if d, loaded := s.design(req.Design); loaded && req.Owner != s.node.Self() && req.Epoch > d.epoch.Load() {
		s.fenceOwned(d, true, req.Epoch)
	}
	if s.leases.Adopt(req.Design, req.Owner, req.Epoch) {
		s.node.SetLeaseEpoch(req.Design, req.Epoch)
	}
	li, _ := s.leases.Current(req.Design)
	writeJSON(w, http.StatusOK, map[string]any{"design": req.Design, "lease": li})
}

// announceLease broadcasts a freshly adopted lease to every alive member.
// Best-effort: a member that misses the announcement learns the lease from
// replication traffic or the next election instead.
func (s *Server) announceLease(name string, epoch uint64) {
	payload, err := json.Marshal(leaseAdoptRequest{
		Design: name, Owner: s.node.Self(), Epoch: epoch, From: s.node.Self(),
	})
	if err != nil {
		return
	}
	for _, peer := range s.aliveOthers() {
		_ = s.postInternal(context.Background(), peer, "/v1/internal/lease/adopt", "lease-adopt", name, payload, nil)
	}
}

// claimLease runs one ownership election for name at epoch: promise
// locally, then collect promises from every alive member. The claim wins
// iff every alive member answered (a transport failure means an unknown
// promise state — abort rather than risk a split) and promises reached a
// majority of the FULL membership. A refusal reporting a strictly more
// caught-up copy aborts immediately — that node should win instead.
func (s *Server) claimLease(name string, epoch, basisE, basisS uint64) bool {
	if !s.leases.Promise(name, epoch) {
		return false
	}
	grants := 1 // self
	payload, err := json.Marshal(leaseClaimRequest{
		Design: name, Epoch: epoch, From: s.node.Self(),
		BasisEpoch: basisE, BasisSeq: basisS,
	})
	if err != nil {
		return false
	}
	for _, peer := range s.aliveOthers() {
		resp, err := s.postClaim(context.Background(), peer, payload)
		if err != nil {
			return false
		}
		if resp.Granted {
			grants++
			continue
		}
		// Refused: learn why. Adopt their lease view and ratchet our promise
		// watermark up to theirs so the next claim leapfrogs every epoch the
		// refuser has already promised — proposing promised+1 each round
		// against a peer that is also self-promising each round never
		// converges. Stand down entirely when the refuser's copy is strictly
		// more caught-up: that node should win, and our own rising watermark
		// must not starve its election.
		if resp.Lease.Epoch > 0 {
			s.leases.Adopt(name, resp.Lease.Owner, resp.Lease.Epoch)
		}
		if resp.Lease.Promised > epoch {
			s.leases.Promise(name, resp.Lease.Promised)
		}
		if !basisAtLeast(basisE, basisS, resp.BasisEpoch, resp.BasisSeq) {
			s.standMu.Lock()
			s.standDown[name] = time.Now().Add(4 * s.promoteEvery)
			s.standMu.Unlock()
			return false
		}
	}
	return grants >= s.node.Quorum()
}

// claimFreshLease runs one ownership election for a design this node is
// about to create (PUT load, basis zero). Unlike a promotion claim it must
// win cleanly — every alive member answers with a grant and grants reach a
// membership majority — because winning over a dissenter whose fencing
// epoch exceeds the claimed one would create a design that is fenced by its
// own replica set on the first ship.
//
// The second return value lists provably stale replicas: peers that refused
// because they hold a copy of the name (non-zero basis) even though the
// lease owner they report granted this very claim — which proves that owner
// hosts neither the design nor a conflicting lease, i.e. the refuser's copy
// is debris of a previously deleted design whose tombstone it missed. The
// caller may tombstone those peers and retry. A refuser whose reported
// owner is dead, unknown, or itself refusing is NOT debris — it may hold
// acked edits awaiting promotion, and a fresh load must never destroy
// those.
func (s *Server) claimFreshLease(name string, epoch uint64) (bool, []string) {
	if !s.leases.Promise(name, epoch) {
		return false, nil
	}
	grants := map[string]bool{s.node.Self(): true}
	payload, err := json.Marshal(leaseClaimRequest{
		Design: name, Epoch: epoch, From: s.node.Self(),
	})
	if err != nil {
		return false, nil
	}
	type refusal struct{ peer, owner string }
	var basisRefusals []refusal
	refused := false
	for _, peer := range s.aliveOthers() {
		resp, err := s.postClaim(context.Background(), peer, payload)
		if err != nil {
			// Unknown promise state somewhere: neither win nor tombstone.
			return false, nil
		}
		if resp.Granted {
			grants[peer] = true
			continue
		}
		refused = true
		// Learn why, exactly as promotion claims do: adopt the refuser's
		// lease view and ratchet our promise watermark so the next attempt
		// leapfrogs every epoch the refuser has already seen.
		if resp.Lease.Epoch > 0 {
			s.leases.Adopt(name, resp.Lease.Owner, resp.Lease.Epoch)
		}
		if resp.Lease.Promised > epoch {
			s.leases.Promise(name, resp.Lease.Promised)
		}
		if resp.BasisEpoch > 0 || resp.BasisSeq > 0 {
			basisRefusals = append(basisRefusals, refusal{peer, resp.Lease.Owner})
		}
	}
	if !refused && len(grants) >= s.node.Quorum() {
		return true, nil
	}
	var debris []string
	for _, ref := range basisRefusals {
		if ref.owner == s.node.Self() || (ref.owner != "" && grants[ref.owner]) {
			debris = append(debris, ref.peer)
		}
	}
	return false, debris
}

// promotionLoop periodically scans for designs whose ownership is lost —
// the lease owner is dead, unknown, or this node itself after a restart —
// and elects this node where its copy qualifies. The scan interval is
// randomized over [T/2, 3T/2) per iteration (Raft-style election jitter):
// two caught-up replicas that boot in the same instant would otherwise
// claim in lockstep — each promising its own epoch and denying the
// other's — and livelock with ever-rising epochs.
func (s *Server) promotionLoop() {
	defer close(s.promoDone)
	t := time.NewTimer(s.promoteJitter())
	defer t.Stop()
	for {
		select {
		case <-s.promoStop:
			return
		case <-t.C:
			s.promoteTick()
			t.Reset(s.promoteJitter())
		}
	}
}

// promoteJitter draws one randomized promotion-scan delay.
func (s *Server) promoteJitter() time.Duration {
	return s.promoteEvery/2 + time.Duration(rand.Int64N(int64(s.promoteEvery)))
}

// standingDown reports whether elections for name are paused because a
// recent claim was refused by a strictly more caught-up candidate.
func (s *Server) standingDown(name string) bool {
	s.standMu.Lock()
	defer s.standMu.Unlock()
	until, ok := s.standDown[name]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(s.standDown, name)
		return false
	}
	return true
}

// promoteTick runs one promotion scan. Claims only happen from inside a
// majority partition: a minority fragment can neither win an election nor
// accept writes, which is what makes the fencing sound.
func (s *Server) promoteTick() {
	if !s.ready.Load() || !s.node.HasMajority() {
		return
	}
	self := s.node.Self()

	// Fenced-but-not-demoted owners (a granted claim that never completed,
	// or a restart into a multi-node cluster): re-claim at a higher epoch.
	s.mu.Lock()
	fenced := make([]*design, 0)
	for _, d := range s.designs {
		if d.fenced.Load() && !d.demoting.Load() {
			fenced = append(fenced, d)
		}
	}
	s.mu.Unlock()
	for _, d := range fenced {
		if li, ok := s.leases.Current(d.name); ok && li.Owner != "" && li.Owner != self &&
			s.node.AliveMember(li.Owner) {
			continue // a live owner exists; stay fenced until demoted or re-shipped
		}
		if s.standingDown(d.name) {
			continue
		}
		epoch := s.leases.NextEpoch(d.name)
		if s.claimLease(d.name, epoch, d.epoch.Load(), d.seq()) {
			s.promoteOwned(d, epoch)
		}
	}

	// Replica copies of designs with no live owner: elect ourselves.
	s.repMu.Lock()
	names := make([]string, 0, len(s.reps))
	for n := range s.reps {
		names = append(names, n)
	}
	s.repMu.Unlock()
	for _, name := range names {
		if _, loaded := s.design(name); loaded {
			continue
		}
		rep := s.replica(name)
		if rep == nil {
			continue
		}
		eng, seq, repoch := rep.view()
		if eng == nil {
			continue
		}
		li, haveLease := s.leases.Current(name)
		_, isRingOwner, _ := s.node.Role(name)
		claim := false
		switch {
		case !haveLease || li.Owner == "":
			claim = true // ownership unknown
		case li.Owner == self:
			claim = true // lease says us but the design is gone: recover it
		case !s.node.AliveMember(li.Owner):
			claim = true // owner died
		case isRingOwner:
			claim = true // handback: the ring placed the design here
		}
		if !claim || s.standingDown(name) {
			continue
		}
		epoch := s.leases.NextEpoch(name)
		if s.claimLease(name, epoch, repoch, seq) {
			s.promoteReplica(name, rep, epoch)
		}
	}
}

// promoteOwned un-fences a resident design under a freshly won epoch. If a
// concurrent fence started demoting the copy while the claim was in flight,
// the promotion aborts instead of resurrecting a design mid-teardown — the
// won epoch is simply abandoned (promised but never adopted anywhere).
func (s *Server) promoteOwned(d *design, epoch uint64) {
	d.fateMu.Lock()
	if d.demoting.Load() {
		d.fateMu.Unlock()
		s.log().Info("reclaim abandoned: design is demoting", "design", d.name, "epoch", epoch)
		return
	}
	d.epoch.Store(epoch)
	d.fenced.Store(false)
	d.fateMu.Unlock()
	self := s.node.Self()
	s.leases.Adopt(d.name, self, epoch)
	s.node.SetLeaseEpoch(d.name, epoch)
	s.node.NotePromotion()
	s.log().Info("design ownership reclaimed", "design", d.name, "epoch", epoch)
	go func() {
		_ = d.checkpoint() // persist the new epoch
		s.announceLease(d.name, epoch)
		s.shipDesign(d) // and re-ship so the replica set re-bases on it
	}()
}

// promoteReplica turns this node's replica copy of name into the owned
// design under a freshly won epoch: persist an owner-side snapshot at the
// copy's seq, transfer the engine into a new single-writer design, publish
// it, and ship the new epoch to the replica set. Bit-identical to a
// single-node replay of the acked edit stream — the engine IS that replay —
// and it keeps counting versions where the owner left off.
func (s *Server) promoteReplica(name string, rep *replicaState, epoch uint64) {
	rep.mu.Lock()
	eng := rep.eng
	if eng == nil {
		rep.mu.Unlock()
		return
	}
	seq := rep.seqLocked()
	var dlog *wal.Log
	if s.store != nil {
		snap := snapshotOf(name, eng)
		snap.Epoch = epoch
		// install also drops any owner WAL debris from a previous ownership
		// of this name: it predates the snapshot and must not replay.
		var err error
		if dlog, err = s.store.install(ownerSub, snap); err != nil {
			rep.mu.Unlock()
			s.log().Error("promotion aborted: cannot persist owner copy", "design", name, "err", err)
			return
		}
	}
	if rep.log != nil {
		rep.log.Close()
		rep.log = nil
	}
	rep.eng = nil
	rep.mu.Unlock()
	s.repMu.Lock()
	delete(s.reps, name)
	s.repMu.Unlock()
	if s.store != nil {
		_ = s.store.remove(replicaSub, name)
	}

	d := newDesign(name, eng, dlog, s.store, s.queueDepth)
	d.epoch.Store(epoch)
	s.attachCluster(d)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		d.close()
		return
	}
	s.designs[name] = d
	s.mu.Unlock()
	self := s.node.Self()
	s.leases.Adopt(name, self, epoch)
	s.node.SetLeaseEpoch(name, epoch)
	s.node.NotePromotion()
	s.log().Info("replica promoted to owner", "design", name, "epoch", epoch, "seq", seq)
	s.startShipping(d)
	go func() {
		s.announceLease(name, epoch)
		s.shipDesign(d) // ship the new epoch to the replica set immediately
	}()
}

// recoverReplicas rebuilds the replica copies persisted under replicas/
// through recoverCopy. A copy that fails to recover is discarded (it
// re-converges from the owner's next ship) rather than failing recovery of
// the whole node.
func (s *Server) recoverReplicas(ctx context.Context) {
	if s.store == nil || s.node == nil {
		return
	}
	ctx, span := obs.StartSpan(ctx, "server.recover.replicas")
	defer span.End()
	escaped, err := s.store.list(replicaSub)
	if err != nil {
		s.log().Error("listing persisted replicas", "err", err)
		return
	}
	recovered := 0
	for _, esc := range escaped {
		name := esc
		if n, derr := url.PathUnescape(esc); derr == nil {
			name = n
		}
		snap, eng, rlog, err := s.recoverCopy(ctx, replicaSub, esc)
		if err != nil {
			s.log().Warn("discarding replica", "design", name, "err", err)
			_ = s.store.remove(replicaSub, name)
			continue
		}
		rep := &replicaState{eng: eng, epoch: snap.Epoch, log: rlog}
		s.repMu.Lock()
		s.reps[snap.Name] = rep
		s.repMu.Unlock()
		// Record the epoch the copy was shipped under without asserting an
		// owner — the promotion loop claims a higher epoch if nobody does.
		s.leases.Adopt(snap.Name, "", snap.Epoch)
		recovered++
	}
	span.SetAttr("replicas", recovered)
}

// --- membership ---

// handleInternalHealth is the heartbeat target: 200 as soon as the process
// serves HTTP, ready or not (liveness, not readiness — a recovering node is
// alive and must not be ejected from membership).
func (s *Server) handleInternalHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMembersGet lists the membership with health, quorum and majority.
func (s *Server) handleMembersGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"self":         s.node.Self(),
		"proxy":        s.node.Proxy(),
		"quorum":       s.node.Quorum(),
		"has_majority": s.node.HasMajority(),
		"members":      s.node.Peers(),
	})
}

// handleMembersAdd joins a peer to the membership and broadcasts the new
// list to every alive member.
func (s *Server) handleMembersAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Peer string `json:"peer"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad join request", err)
		return
	}
	norm, err := s.node.AddMember(req.Peer)
	if err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "peer rejected", err)
		return
	}
	go s.broadcastMembers()
	writeJSON(w, http.StatusOK, map[string]any{"joined": norm, "members": s.node.Members()})
}

// handleMembersRemove removes a peer from the membership and broadcasts.
// The {peer...} wildcard accepts unescaped base URLs (http://host:port).
func (s *Server) handleMembersRemove(w http.ResponseWriter, r *http.Request) {
	peer := r.PathValue("peer")
	if unesc, err := url.PathUnescape(peer); err == nil {
		peer = unesc
	}
	norm, err := s.node.RemoveMember(peer)
	if err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "cannot remove peer", err)
		return
	}
	go s.broadcastMembers()
	writeJSON(w, http.StatusOK, map[string]any{"removed": norm, "members": s.node.Members()})
}

// handleInternalMembers applies a peer's membership broadcast wholesale:
// join everything listed, drop everything absent (never self). Broadcasts
// are not re-broadcast — the admin entry point fans out exactly once.
func (s *Server) handleInternalMembers(w http.ResponseWriter, r *http.Request) {
	var req membersRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpErrorDetail(w, http.StatusBadRequest, codeInvalidRequest, "bad members broadcast", err)
		return
	}
	if len(req.Members) == 0 {
		httpError(w, http.StatusBadRequest, codeInvalidRequest, "members list must not be empty")
		return
	}
	listed := map[string]bool{}
	for _, m := range req.Members {
		if norm, err := s.node.AddMember(m); err == nil {
			listed[norm] = true
		}
	}
	for _, m := range s.node.Members() {
		if !listed[m] && m != s.node.Self() {
			_, _ = s.node.RemoveMember(m)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"members": s.node.Members()})
}

// broadcastMembers pushes this node's membership list to every alive member.
func (s *Server) broadcastMembers() {
	payload, err := json.Marshal(membersRequest{Members: s.node.Members(), From: s.node.Self()})
	if err != nil {
		return
	}
	for _, peer := range s.aliveOthers() {
		_ = s.postInternal(context.Background(), peer, "/v1/internal/members", "members", "", payload, nil)
	}
}

// --- introspection ---

// handleClusterDesign is the resource-shaped design status: the adopted
// lease (owner + epoch), the ring placement, this node's local role, and —
// on the owner — per-replica acknowledged sequences.
func (s *Server) handleClusterDesign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if unesc, err := url.PathUnescape(name); err == nil {
		name = unesc
	}
	li, _ := s.leases.Current(name)
	ringOwner, ringReplicas := s.node.Placement(name)
	resp := map[string]any{
		"design": name,
		"lease":  li,
		"ring":   map[string]any{"owner": ringOwner, "replicas": ringReplicas},
	}
	if d, ok := s.design(name); ok {
		seq := d.seq()
		local := map[string]any{
			"role": "owner", "seq": seq, "epoch": d.epoch.Load(), "fenced": d.fenced.Load(),
		}
		if d.shp != nil {
			lag := map[string]uint64{}
			for peer, acked := range d.shp.snapshot() {
				lag[peer] = seq - min64(acked, seq)
			}
			local["replica_lag"] = lag
		}
		resp["local"] = local
	} else if rep := s.replica(name); rep != nil {
		if eng, seq, epoch := rep.view(); eng != nil {
			rep.mu.Lock()
			from := rep.from
			rep.mu.Unlock()
			resp["local"] = map[string]any{
				"role": "replica", "seq": seq, "epoch": epoch, "owner": from,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
