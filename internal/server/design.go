package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incsta"
	"repro/internal/wal"
)

// ErrDesignClosed is returned for edits submitted to a design that has been
// deleted or a server that is shutting down.
var ErrDesignClosed = errors.New("server: design closed")

// ErrOverloaded is returned when a design's bounded edit queue is full: the
// writer cannot keep up and the edit is rejected immediately (503
// "overloaded") instead of piling up unbounded memory and latency.
var ErrOverloaded = errors.New("server: edit queue full")

// defaultEditQueueDepth bounds each design's pending-edit buffer.
const defaultEditQueueDepth = 64

// errInDoubt answers the edit whose commit step failed (its WAL append, or
// the publish after it): the record may have reached the disk, so the edit
// may survive a crash.
var errInDoubt = errors.New("server: edit in doubt (it may survive a crash): the design refuses edits until a restart recovers it")

// errFailStopped refuses every edit after an in-doubt one.
var errFailStopped = errors.New("server: design stopped after a WAL failure; edits are refused until a restart recovers it from disk")

// design pairs an incremental engine with its serialized edit queue and
// (when the server has a Store) its write-ahead log. The engine itself is
// safe for concurrent edits, but the queue gives the HTTP layer one writer
// per design, edits applied strictly in arrival order, while read queries go
// straight to the engine's lock-free snapshots.
//
// Durability discipline (apply, log, publish): the writer applies an edit
// to the engine's unpublished state, appends it to the log only if the
// engine accepted it, then publishes, ships and acknowledges. A rejected
// edit writes nothing. So the log holds exactly the accepted edits, and its
// record seqs are the design's seq space: the record numbered n took the
// design to version n+1, on this node, on its replicas and after any
// restart. A failed append fail-stops the design instead of rolling back:
// the edit is answered in doubt, every later edit is refused, no
// checkpoint or drain snapshot is written, and reads keep the last
// published snapshot, which is durable. A restart recovers from disk.
type design struct {
	name  string
	eng   *incsta.Engine
	log   *wal.Log // nil = in-memory only
	store *Store   // nil = in-memory only
	reqs  chan editReq
	calls chan func() // work run on the writer goroutine (onWriter)
	quit  chan struct{}
	done  chan struct{}
	// failed is set when an edit's commit step failed: the engine then
	// holds unpublished state the log may lack. Writer goroutine only.
	failed bool

	// Cluster-mode state. epoch is the ownership-lease fencing token the
	// design serves under; fenced flips once a higher epoch is observed (a
	// fenced design stops accepting edits and is demoted to a replica).
	// ship, set before the design is published, synchronously replicates
	// one applied edit under its seq; its error fails the edit's
	// acknowledgement.
	epoch    atomic.Uint64
	fenced   atomic.Bool
	demoting atomic.Bool // guards the once-only demotion of a fenced owner
	// fateMu serializes ownership-fate transitions (fenceOwned vs
	// promoteOwned): a stale fencing decision racing a re-promotion could
	// otherwise tear down the copy a just-announced lease points at.
	fateMu sync.Mutex
	shp    *shipState // per-peer replication progress (cluster mode)
	ship   func(seq uint64, payload []byte) error
}

type editReq struct {
	ed    incsta.Edit
	reply chan editResult
}

type editResult struct {
	rep *incsta.Report
	err error
}

// newDesign starts the single-writer loop. log and store are both nil for an
// in-memory design; with a store, the caller has already persisted the
// initial snapshot and opened the log at the engine's seq.
func newDesign(name string, eng *incsta.Engine, log *wal.Log, store *Store, queueDepth int) *design {
	if queueDepth <= 0 {
		queueDepth = defaultEditQueueDepth
	}
	d := &design{
		name:  name,
		eng:   eng,
		log:   log,
		store: store,
		reqs:  make(chan editReq, queueDepth),
		calls: make(chan func(), 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go d.serve()
	if store != nil && store.cfg.SnapshotInterval > 0 {
		go d.snapshotLoop(store.cfg.SnapshotInterval)
	}
	return d
}

// seq is the number of accepted edits the design's published state
// includes: its served version − 1.
func (d *design) seq() uint64 { return d.eng.Snapshot().Version() - 1 }

// serve is the design's single-writer loop. On quit it drains edits already
// queued (their HTTP handlers are waiting on replies), persists a final
// snapshot, and exits.
func (d *design) serve() {
	defer close(d.done)
	for {
		select {
		case <-d.quit:
			d.drainAndPersist()
			return
		case req := <-d.reqs:
			req.reply <- d.applyOne(req.ed)
		case fn := <-d.calls:
			fn()
		}
	}
}

// drainAndPersist finishes queued edits and folds the final state into a
// durable snapshot — the graceful-shutdown half of the durability story.
func (d *design) drainAndPersist() {
	for {
		select {
		case req := <-d.reqs:
			req.reply <- d.applyOne(req.ed)
		default:
			if err := d.persist(); err != nil && !errors.Is(err, errFailStopped) {
				mPersistErrors.Inc()
			}
			return
		}
	}
}

// applyOne applies one edit, logs it durably if the engine accepted it,
// publishes it, and in cluster mode ships it to the design's replicas under
// its seq before acknowledging. A ship failure is reported alongside the
// (already applied and logged) report — the caller decides how hard to fail
// the acknowledgement.
func (d *design) applyOne(ed incsta.Edit) editResult {
	if d.failed {
		return editResult{err: errFailStopped}
	}
	var payload []byte
	if d.log != nil || d.ship != nil {
		var err error
		if payload, err = json.Marshal(ed); err != nil {
			return editResult{err: fmt.Errorf("server: encode edit: %w", err)}
		}
	}
	var commit func([]incsta.EditResult) error
	if d.log != nil {
		commit = logCommit(d.log, payload)
	}
	res, err := d.eng.ApplyBatch([]incsta.Edit{ed}, commit)
	if err != nil {
		d.failed = true
		return editResult{err: fmt.Errorf("%w: %v", errInDoubt, err)}
	}
	rep := res[0].Report
	if res[0].Err != nil {
		return editResult{err: res[0].Err}
	}
	if d.ship != nil {
		if err := d.ship(rep.Version-1, payload); err != nil {
			return editResult{rep: rep, err: err}
		}
	}
	return editResult{rep: rep}
}

// logCommit is the commit step of a one-edit batch on a durable copy: it
// appends the accepted edit to lg and requires the record's seq to be the
// copy's new seq, its new version − 1.
func logCommit(lg *wal.Log, payload []byte) func([]incsta.EditResult) error {
	return func(res []incsta.EditResult) error {
		seq, err := lg.Append(payload)
		if err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		if want := res[0].Report.Version - 1; seq != want {
			return fmt.Errorf("wal appended seq %d, the copy is at seq %d", seq, want)
		}
		return nil
	}
}

// persist folds the current engine state into a durable snapshot and
// truncates the replayed log. Runs on the writer goroutine, so the state and
// its seq are coherent by construction.
func (d *design) persist() error {
	if d.store == nil {
		return nil
	}
	snap, err := d.captureLocked()
	if err != nil {
		return err
	}
	return d.store.checkpoint(ownerSub, snap, d.log)
}

// snapshotLoop periodically checkpoints the design so the WAL stays short
// and recovery fast.
func (d *design) snapshotLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-t.C:
			if err := d.checkpoint(); err != nil && !errors.Is(err, ErrDesignClosed) && !errors.Is(err, errFailStopped) {
				mPersistErrors.Inc()
			}
		}
	}
}

// onWriter runs fn on the writer goroutine and waits for it to finish.
// Fails, without running fn, once the design is closed.
func (d *design) onWriter(fn func()) error {
	ran := make(chan struct{})
	select {
	case d.calls <- func() { fn(); close(ran) }:
	case <-d.quit:
		return ErrDesignClosed
	}
	select {
	case <-ran:
		return nil
	case <-d.done:
		return ErrDesignClosed
	}
}

// checkpoint asks the writer loop to persist a snapshot and waits for it.
func (d *design) checkpoint() error {
	err := ErrDesignClosed
	if werr := d.onWriter(func() { err = d.persist() }); werr != nil {
		return werr
	}
	return err
}

// captureLocked snapshots the design state with its seq and epoch. Runs on
// the writer goroutine. A failed design holds state its log may lack, so
// it has no snapshot to give.
func (d *design) captureLocked() (*designSnapshot, error) {
	if d.failed {
		return nil, errFailStopped
	}
	snap := snapshotOf(d.name, d.eng)
	snap.Epoch = d.epoch.Load()
	return snap, nil
}

// capture asks the writer loop for a coherent (state, seq, epoch) snapshot
// — what a full replicate ship carries. Fails once the design is closed or
// failed.
func (d *design) capture() (*designSnapshot, error) {
	var snap *designSnapshot
	err := ErrDesignClosed
	if werr := d.onWriter(func() { snap, err = d.captureLocked() }); werr != nil {
		return nil, werr
	}
	return snap, err
}

// submit queues one edit and waits for its report. A full queue rejects
// immediately with ErrOverloaded; cancellation of ctx abandons the wait (the
// edit may still apply); a closed design returns ErrDesignClosed.
func (d *design) submit(ctx context.Context, ed incsta.Edit) (*incsta.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-d.quit:
		return nil, ErrDesignClosed
	default:
	}
	req := editReq{ed: ed, reply: make(chan editResult, 1)}
	select {
	case d.reqs <- req:
	default:
		return nil, ErrOverloaded
	}
	select {
	case res := <-req.reply:
		return res.rep, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-d.done:
		return nil, ErrDesignClosed
	}
}

// close stops the writer loop (which persists a final snapshot), waits for
// it to exit, and closes the log.
func (d *design) close() {
	close(d.quit)
	<-d.done
	if d.log != nil {
		d.log.Close()
	}
}
