package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/timinglib"
	"repro/internal/wal"
)

// instance is one in-process timingd: server.New + Handler() served over
// loopback HTTP, with a durable store under dir.
type instance struct {
	url    string
	dir    string
	srv    *server.Server
	hs     *http.Server
	node   *cluster.Node // nil on a single node
	fs     *countingFS   // nil unless traced
	served chan error
}

// discardLogger keeps timingd's default INFO request logging (and its
// formatting cost) but drops the bytes, so terminal or pipe speed is not
// measured.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// serverOptions are cmd/timingd's defaults, with a durable store under
// fsync always.
func serverOptions(st *server.Store) []server.Option {
	return []server.Option{
		server.WithMaxBodyBytes(64 << 20),
		server.WithAdmission(256, time.Second),
		server.WithEditQueueDepth(64),
		server.WithRequestTimeout(2 * time.Minute),
		server.WithTraceSampling(0),
		server.WithSlowLogSize(32),
		server.WithLogger(discardLogger()),
		server.WithStore(st),
	}
}

func storeConfig() server.StoreConfig {
	return server.StoreConfig{
		Policy:           wal.SyncAlways,
		FsyncInterval:    100 * time.Millisecond,
		SnapshotInterval: 5 * time.Minute,
	}
}

// boot starts one instance per data dir: one is a single node, several form
// a cluster (one replica per design, proxying on, timingd's default
// intervals). Each instance recovers whatever its dir holds before it
// serves. With rec set, every handler is wrapped by it and every store runs
// on a counting filesystem.
func boot(lib *timinglib.File, dirs []string, rec *recorder) ([]*instance, error) {
	lns := make([]net.Listener, len(dirs))
	urls := make([]string, len(dirs))
	for i := range dirs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	insts := make([]*instance, 0, len(dirs))
	for i, dir := range dirs {
		in, err := startInstance(lib, dir, urls[i], urls, lns[i], i, rec)
		if err != nil {
			closeListeners(lns[i:])
			closeAll(insts)
			return nil, err
		}
		insts = append(insts, in)
	}
	return insts, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

func startInstance(lib *timinglib.File, dir, self string, peers []string, ln net.Listener, idx int, rec *recorder) (*instance, error) {
	in := &instance{url: self, dir: dir, served: make(chan error, 1)}
	fsys := wal.OS()
	if rec != nil {
		in.fs = newCountingFS(fsys)
		fsys = in.fs
	}
	opts := serverOptions(server.NewStore(fsys, dir, storeConfig()))
	if len(peers) > 1 {
		n, err := cluster.NewNode(cluster.Config{
			Self: self, Peers: peers, Replicas: 1, Proxy: true,
			ReplicateInterval: time.Second,
			HeartbeatInterval: time.Second,
			HeartbeatTimeout:  500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		n.Start()
		in.node = n
		opts = append(opts, server.WithCluster(n), server.WithPromotionInterval(time.Second))
	}
	in.srv = server.New(lib, opts...)
	if err := in.srv.Recover(context.Background()); err != nil {
		in.srv.Close()
		if in.node != nil {
			in.node.Close()
		}
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	h := in.srv.Handler()
	if rec != nil {
		h = rec.wrap(h, idx)
	}
	in.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ErrorLog: log.New(io.Discard, "", 0)}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// closeAll stops the instances: HTTP first (draining in-flight requests),
// then the servers, then the cluster nodes, waiting for each.
func closeAll(insts []*instance) {
	for _, in := range insts {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := in.hs.Shutdown(ctx); err != nil {
			in.hs.Close()
		}
		cancel()
		<-in.served
	}
	for _, in := range insts {
		in.srv.Close()
	}
	for _, in := range insts {
		if in.node != nil {
			in.node.Close()
		}
	}
}

// copyTree copies the regular files under src into dst — a crash image of a
// live data dir when no writes are in flight, since every acked write has
// been fsynced.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if strings.Contains(d.Name(), ".tmp.") {
			return nil // an atomic write in progress is not part of the image
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// countingFS wraps the store's filesystem to count what it writes and
// fsyncs, snapshots included, and to time each fsync of a WAL file.
type countingFS struct {
	wal.FS
	mu       sync.Mutex
	bytes    int64
	fsyncs   int64
	walSyncs []time.Duration
}

func newCountingFS(inner wal.FS) *countingFS { return &countingFS{FS: inner} }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: filepath.Base(name) == "wal.log"}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	err := c.FS.SyncDir(dir)
	c.mu.Lock()
	c.fsyncs++
	c.mu.Unlock()
	return err
}

// reset zeroes the counters at the start of a measured window.
func (c *countingFS) reset() {
	c.mu.Lock()
	c.bytes, c.fsyncs, c.walSyncs = 0, 0, nil
	c.mu.Unlock()
}

func (c *countingFS) totals() (bytes, fsyncs int64, walSyncs []time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.fsyncs, append([]time.Duration(nil), c.walSyncs...)
}

type countingFile struct {
	wal.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.fsyncs++
	if f.wal {
		f.fs.walSyncs = append(f.fs.walSyncs, d)
	}
	f.fs.mu.Unlock()
	return err
}

// hopHeader marks a request a cluster node proxied to the design's owner.
const hopHeader = "X-Timingd-Forward"

// routeRec is one request as a wrapped Handler saw it.
type routeRec struct {
	node      int
	kind      string
	internal  bool
	forwarded bool
	status    int
	reqBytes  int64
	respBytes int
	dur       time.Duration
	rid       string
}

// recorder times every request through each instance's Handler(), the
// cluster-internal routes included, while switched on.
type recorder struct {
	mu   sync.Mutex
	on   bool
	recs []routeRec
}

func (rc *recorder) start() {
	rc.mu.Lock()
	rc.on, rc.recs = true, nil
	rc.mu.Unlock()
}

func (rc *recorder) stop() []routeRec {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.on = false
	return rc.recs
}

func (rc *recorder) wrap(next http.Handler, node int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		d := time.Since(t0)
		status := cw.status
		if status == 0 {
			status = http.StatusOK
		}
		rec := routeRec{
			node: node, kind: routeKind(r),
			internal:  strings.HasPrefix(r.URL.Path, "/v1/internal/"),
			forwarded: r.Header.Get(hopHeader) != "",
			status:    status, reqBytes: r.ContentLength, respBytes: cw.n,
			dur: d, rid: r.Header.Get("X-Request-ID"),
		}
		rc.mu.Lock()
		if rc.on {
			rc.recs = append(rc.recs, rec)
		}
		rc.mu.Unlock()
	})
}

// routeKind names a request the way the benchmark's metrics do.
func routeKind(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/v1/internal/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return "internal." + rest
	}
	rest, ok := strings.CutPrefix(p, "/v1/designs/")
	if !ok {
		return "other"
	}
	sub := ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		sub = rest[i+1:]
	}
	switch {
	case sub == "" && r.Method == http.MethodPut:
		return "load"
	case sub == "" && r.Method == http.MethodGet:
		return kindSummary
	case sub == "edits":
		return kindEdit
	case sub == "paths":
		return "paths" + r.URL.Query().Get("k")
	case sub == "slacks":
		return kindSlacks
	case sub == "batch":
		return kindBatch
	}
	return "other"
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
