// Command timingd is the long-lived N-sigma timing-query server: it loads
// the coefficients file once at startup and then hosts any number of named
// designs, each backed by an incremental STA engine, serving concurrent
// timing queries over HTTP/JSON while ECO edits stream in.
//
//	timingd -lib coeffs.json -addr :8080
//
//	# load a built-in benchmark as design "c432", batching two corners
//	curl -X PUT localhost:8080/v1/designs/c432 \
//	     -d '{"circuit":"c432","corners":[{"name":"fast"},{"name":"slow","cap_scale":1.15}]}'
//	# query the 5 worst paths at the current version (slow corner)
//	curl 'localhost:8080/v1/designs/c432/paths?k=5&corner=slow'
//	# resize a cell; only its downstream cone is re-timed
//	curl -X POST localhost:8080/v1/designs/c432/edits \
//	     -d '{"op":"resize","gate":"U7","strength":8}'
//	# several views of one pinned snapshot in a single round trip
//	curl -X POST localhost:8080/v1/designs/c432/batch \
//	     -d '{"queries":[{"kind":"summary"},{"kind":"paths","k":3,"corner":"slow"}]}'
//	# liveness, readiness and Prometheus metrics
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/readyz
//	curl localhost:8080/metrics
//
// Resource routes live under /v1 only; a path without the prefix answers a
// JSON 404 "unknown_route". See API.md for the full surface and error
// envelope.
//
// Durability: -data-dir gives every design a write-ahead log plus periodic
// snapshots and replays them on startup, so acknowledged edits survive
// kill -9 (-fsync always, the default, fsyncs each edit before the ack;
// -fsync interval batches fsyncs on -fsync-interval). /v1/readyz answers 503
// not_ready until recovery completes; -verify-recovery cross-checks every
// recovered design against a fresh full analysis. Without -data-dir the
// server is purely in-memory.
//
// Overload protection: -max-queries bounds concurrent query evaluation
// (batches weigh their query count; FIFO waiting up to -admission-wait),
// -edit-queue bounds each design's pending edits, -max-body-bytes caps
// design uploads, and -request-timeout deadlines every request. Exceeding a
// bound returns a typed 503 overloaded or 413 payload_too_large.
//
// Cluster mode: -cluster-peers (with -cluster-self) shards designs across
// several timingd processes on a consistent-hash ring — one owner plus
// -cluster-replicas read replicas per design, snapshot shipping on
// -replicate-interval, heartbeat-driven ejection of dead peers, and 307
// redirects (or transparent proxying under -cluster-proxy) so any node
// serves any request. Ownership is held under a per-design lease with a
// monotonic fencing epoch: when an owner dies, the most caught-up replica
// elects itself under a strictly greater epoch (scan cadence
// -promotion-interval) and the revived old owner is fenced with 409
// stale_epoch until it re-wins. With -data-dir, replicas persist shipped
// snapshots plus the replicated edit tail, so a promoted replica recovers
// from its own durable state. -cluster-join <member-url> grows a running
// cluster dynamically instead of listing every peer up front. See DESIGN.md
// "Cluster" and API.md.
//
// Observability: -log-level/-log-json configure structured logs, -pprof
// (off by default) mounts the net/http/pprof handlers under /debug/pprof/,
// and -trace-out records spans for the whole run and writes a Chrome
// trace_event JSON file at shutdown. Every request gets an X-Request-ID
// (client-supplied or minted) echoed on every response and stamped on every
// log line; -trace-sample head-samples requests into distributed traces
// carried across nodes as W3C traceparent headers (merge per-node trace
// files with cmd/tracemerge); GET /v1/debug/slow lists the -slow-log slowest
// requests with their correlation IDs; /metrics includes process runtime
// gauges (goroutines, heap, GC pause p99, open fds).
//
// SIGINT/SIGTERM drain in-flight requests and stop every design's edit
// queue before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/libsynth"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/timinglib"
	"repro/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		libPath  = flag.String("lib", "coeffs.json", "coefficients file (from cmd/characterize), or \"synth\" for the built-in synthetic library")
		drainFor = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		traceOut = flag.String("trace-out", "", "record spans and write a Chrome trace_event JSON file here at shutdown")
		traceSmp = flag.Float64("trace-sample", 0, "head-sampling rate for requests arriving without a traceparent (0..1; incoming sampled traceparents always trace)")
		slowKeep = flag.Int("slow-log", 32, "slowest requests retained for GET /v1/debug/slow")

		dataDir       = flag.String("data-dir", "", "durability root: per-design WAL + snapshots, crash recovery on startup (empty = in-memory only)")
		fsyncPolicy   = flag.String("fsync", "always", "WAL fsync policy: always (acknowledged edits are durable) or interval")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period under -fsync interval")
		snapInterval  = flag.Duration("snapshot-interval", 5*time.Minute, "how often each design folds its WAL into a fresh snapshot (0 = only at load and shutdown)")
		verifyRec     = flag.Bool("verify-recovery", false, "cross-check every recovered design against a fresh full analysis at startup (slow)")
		maxBodyBytes  = flag.Int64("max-body-bytes", 64<<20, "largest accepted design-load request body")
		maxQueries    = flag.Int("max-queries", 256, "queries evaluated concurrently across the server; a batch counts as its query count (0 = unlimited)")
		admWait       = flag.Duration("admission-wait", time.Second, "how long a query may queue for admission before 503 overloaded")
		editQueue     = flag.Int("edit-queue", 64, "pending edits buffered per design before 503 overloaded")
		reqTimeout    = flag.Duration("request-timeout", 2*time.Minute, "per-request context deadline (0 = none)")

		clusterPeers = flag.String("cluster-peers", "", "comma-separated base URLs of every cluster node (including this one); empty = single-node")
		clusterJoin  = flag.String("cluster-join", "", "base URL of an existing member: fetch its membership, start with it, and announce this node (dynamic alternative to -cluster-peers; requires -cluster-self)")
		clusterSelf  = flag.String("cluster-self", "", "this node's advertised base URL (required with -cluster-peers or -cluster-join)")
		clusterReps  = flag.Int("cluster-replicas", 1, "read replicas per design beyond its owner")
		clusterProxy = flag.Bool("cluster-proxy", false, "proxy requests for designs owned elsewhere to their owner instead of answering 307 redirects")
		replInterval = flag.Duration("replicate-interval", time.Second, "snapshot shipping cadence from owners to replicas")
		hbInterval   = flag.Duration("heartbeat-interval", time.Second, "peer health probe cadence")
		hbTimeout    = flag.Duration("heartbeat-timeout", 500*time.Millisecond, "per-probe timeout; 3 consecutive failures eject a peer from the ring")
		promoEvery   = flag.Duration("promotion-interval", time.Second, "how often this node scans for designs whose lease owner is dead or unknown and elects itself")

		logOpts = obs.RegisterLogFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := logOpts.Setup(); err != nil {
		fatal("timingd: logging setup", err)
	}
	if *traceOut != "" {
		obs.Trace.Enable(obs.DefaultSpanBuffer)
	}
	obs.RegisterRuntimeMetrics(obs.Default())

	var lib *timinglib.File
	if *libPath == "synth" {
		// The synthetic characterisation-free library: full cell coverage with
		// non-flat LUT planes. For smoke tests and development; not silicon.
		lib = libsynth.File()
	} else {
		var err error
		lib, err = timinglib.Load(*libPath)
		if err != nil {
			fatal("timingd: load library", resilience.Wrap("timingd: load library", err))
		}
	}

	opts := []server.Option{
		server.WithMaxBodyBytes(*maxBodyBytes),
		server.WithAdmission(*maxQueries, *admWait),
		server.WithEditQueueDepth(*editQueue),
		server.WithRequestTimeout(*reqTimeout),
		server.WithTraceSampling(*traceSmp),
		server.WithSlowLogSize(*slowKeep),
	}
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			fatal("timingd: -fsync", err)
		}
		opts = append(opts, server.WithStore(server.NewStore(nil, *dataDir, server.StoreConfig{
			Policy:           policy,
			FsyncInterval:    *fsyncInterval,
			SnapshotInterval: *snapInterval,
			VerifyRecovery:   *verifyRec,
		})))
	}
	var node *cluster.Node
	if *clusterPeers != "" || *clusterJoin != "" {
		peers := strings.Split(*clusterPeers, ",")
		if *clusterJoin != "" {
			// Dynamic join: seed the membership from an existing member; the
			// announcement (below, once we serve) spreads us to everyone else.
			fetched, err := fetchMembers(*clusterJoin)
			if err != nil {
				fatal("timingd: -cluster-join", err)
			}
			peers = append(fetched, *clusterSelf)
		}
		var err error
		node, err = cluster.NewNode(cluster.Config{
			Self:              *clusterSelf,
			Peers:             peers,
			Replicas:          *clusterReps,
			Proxy:             *clusterProxy,
			ReplicateInterval: *replInterval,
			HeartbeatInterval: *hbInterval,
			HeartbeatTimeout:  *hbTimeout,
		})
		if err != nil {
			fatal("timingd: cluster", err)
		}
		node.Start()
		defer node.Close()
		opts = append(opts, server.WithCluster(node), server.WithPromotionInterval(*promoEvery))
		slog.Info("timingd: cluster mode", "self", node.Self(),
			"peers", len(node.Ring().Peers()), "replicas", *clusterReps, "proxy", *clusterProxy)
	}
	srv := server.New(lib, opts...)
	handler := http.Handler(srv.Handler())
	if *pprofOn {
		// pprof stays opt-in: profiling endpoints expose internals and cost
		// CPU, so production deployments must ask for them explicitly.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Recover concurrently with listening: /healthz answers immediately,
	// /v1/readyz (and every design route) stays 503 not_ready until every
	// persisted design has been rebuilt and its WAL tail replayed.
	go func() {
		t0 := time.Now()
		if err := srv.Recover(context.Background()); err != nil {
			fatal("timingd: recovery", resilience.Wrap("timingd: recovery", err))
		}
		if *dataDir != "" {
			slog.Info("timingd: recovery complete", "data_dir", *dataDir, "took", time.Since(t0))
		}
	}()

	errc := make(chan error, 1)
	go func() {
		slog.Info("timingd: serving", "addr", *addr, "library", *libPath,
			"arcs", len(lib.Arcs), "pprof", *pprofOn, "data_dir", *dataDir)
		errc <- hs.ListenAndServe()
	}()
	if *clusterJoin != "" {
		go announceJoin(*clusterJoin, node.Self())
	}

	select {
	case err := <-errc:
		// Listen failed before any signal: nothing to drain.
		fatal("timingd: serve", resilience.Wrap("timingd: serve", err))
	case <-ctx.Done():
	}

	slog.Info("timingd: shutdown signal, draining", "timeout", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		slog.Warn("timingd: drain incomplete", "err", err, "class", resilience.Classify(err).String())
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("timingd: serve", resilience.Wrap("timingd: serve", err))
	}
	if *traceOut != "" {
		if err := obs.Trace.WriteFile(*traceOut); err != nil {
			slog.Error("timingd: writing trace", "path", *traceOut, "err", err)
		} else {
			slog.Info("timingd: wrote trace", "path", *traceOut, "spans", obs.Trace.Len(),
				"dropped", obs.Trace.Dropped())
		}
	}
	slog.Info("timingd: bye")
}

// fetchMembers asks an existing cluster member for its membership list.
func fetchMembers(seed string) ([]string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimRight(seed, "/") + "/v1/cluster/members")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("seed %s answered %s", seed, resp.Status)
	}
	var body struct {
		Members []struct {
			URL string `json:"url"`
		} `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	urls := make([]string, 0, len(body.Members))
	for _, m := range body.Members {
		urls = append(urls, m.URL)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("seed %s reported no members", seed)
	}
	return urls, nil
}

// announceJoin POSTs this node to the seed's membership resource, which
// broadcasts the grown list to every member. Retried briefly: the seed may
// itself still be starting.
func announceJoin(seed, self string) {
	client := &http.Client{Timeout: 5 * time.Second}
	body := fmt.Sprintf(`{"peer":%q}`, self)
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := client.Post(strings.TrimRight(seed, "/")+"/v1/cluster/members",
			"application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				slog.Info("timingd: joined cluster", "seed", seed)
				return
			}
		}
		time.Sleep(time.Second)
	}
	slog.Warn("timingd: could not announce join to seed", "seed", seed)
}

func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}
