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

// design pairs an incremental engine with its serialized edit queue and
// (when the server has a Store) its write-ahead log. The engine itself is
// safe for concurrent edits, but the queue gives the HTTP layer one writer
// per design, edits applied strictly in arrival order, while read queries go
// straight to the engine's lock-free snapshots.
//
// Durability discipline (WAL-first): the writer appends the edit record to
// the log — durable per the fsync policy — before applying it to the engine,
// and acknowledges only after both. Rejected edits stay in the log; replay
// re-rejects them identically, so recovery is a pure replay of the record
// prefix that survived.
type design struct {
	name  string
	eng   *incsta.Engine
	log   *wal.Log // nil = in-memory only
	store *Store   // nil = in-memory only
	reqs  chan editReq
	snaps chan chan error
	caps  chan chan *designSnapshot
	quit  chan struct{}
	done  chan struct{}

	// Cluster-mode state. seq counts successfully applied edits — the
	// replication sequence replicas ack and the owner persists as EditSeq;
	// epoch is the ownership-lease fencing token the design serves under;
	// fenced flips once a higher epoch is observed (a fenced design stops
	// accepting edits and is demoted to a replica). ship, set before the
	// design is published, synchronously replicates one applied edit; its
	// error fails the edit's acknowledgement.
	seq      atomic.Uint64
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
	seq uint64 // replication seq assigned to an applied edit (0 if none)
	err error
}

// newDesign starts the single-writer loop. log and store are both nil for an
// in-memory design; with a store, the caller has already persisted the
// initial snapshot and opened the log.
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
		snaps: make(chan chan error, 1),
		caps:  make(chan chan *designSnapshot, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go d.serve()
	if store != nil && store.cfg.SnapshotInterval > 0 {
		go d.snapshotLoop(store.cfg.SnapshotInterval)
	}
	return d
}

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
		case errc := <-d.snaps:
			errc <- d.persist()
		case c := <-d.caps:
			c <- d.captureLocked()
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
			if d.store != nil {
				if err := d.persist(); err != nil {
					mPersistErrors.Inc()
				}
			}
			return
		}
	}
}

// applyOne logs (durably) then applies one edit; in cluster mode a
// successful apply bumps the replication seq and ships the edit to the
// design's replicas before acknowledging. A ship failure is reported
// alongside the (already applied) report — the caller decides how hard to
// fail the acknowledgement.
func (d *design) applyOne(ed incsta.Edit) editResult {
	var payload []byte
	if d.log != nil || d.ship != nil {
		var err error
		if payload, err = json.Marshal(ed); err != nil {
			return editResult{err: fmt.Errorf("server: encode edit: %w", err)}
		}
	}
	if d.log != nil {
		if _, err := d.log.Append(payload); err != nil {
			// The edit never reached stable storage: refuse to apply it, or an
			// acknowledged state transition could vanish on restart.
			return editResult{err: fmt.Errorf("server: wal append: %w", err)}
		}
	}
	rep, err := d.eng.ApplyEdit(ed)
	if err != nil {
		return editResult{rep: rep, err: err}
	}
	seq := d.seq.Add(1)
	if d.ship != nil {
		if err := d.ship(seq, payload); err != nil {
			return editResult{rep: rep, seq: seq, err: err}
		}
	}
	return editResult{rep: rep, seq: seq}
}

// persist folds the current engine state into a durable snapshot and
// truncates the replayed log. Runs on the writer goroutine, so the state and
// the WAL high-water mark are coherent by construction.
func (d *design) persist() error {
	if d.store == nil {
		return nil
	}
	var seq uint64
	if d.log != nil {
		seq = d.log.LastSeq()
	}
	snap := snapshotOf(d.name, d.eng, seq)
	snap.EditSeq = d.seq.Load()
	snap.Epoch = d.epoch.Load()
	if err := d.store.saveSnapshot(snap); err != nil {
		return err
	}
	if d.log != nil {
		return d.log.TruncateAll()
	}
	return nil
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
			if err := d.checkpoint(); err != nil && !errors.Is(err, ErrDesignClosed) {
				mPersistErrors.Inc()
			}
		}
	}
}

// checkpoint asks the writer loop to persist a snapshot and waits for it.
func (d *design) checkpoint() error {
	errc := make(chan error, 1)
	select {
	case d.snaps <- errc:
	case <-d.quit:
		return ErrDesignClosed
	}
	select {
	case err := <-errc:
		return err
	case <-d.done:
		return ErrDesignClosed
	}
}

// captureLocked snapshots the design state with a coherent replication seq
// and epoch. Runs on the writer goroutine.
func (d *design) captureLocked() *designSnapshot {
	var walSeq uint64
	if d.log != nil {
		walSeq = d.log.LastSeq()
	}
	snap := snapshotOf(d.name, d.eng, walSeq)
	snap.EditSeq = d.seq.Load()
	snap.Epoch = d.epoch.Load()
	return snap
}

// capture asks the writer loop for a coherent (state, seq, epoch) snapshot
// — what a full replicate ship carries. Fails once the design is closed.
func (d *design) capture() (*designSnapshot, error) {
	c := make(chan *designSnapshot, 1)
	select {
	case d.caps <- c:
	case <-d.quit:
		return nil, ErrDesignClosed
	}
	select {
	case snap := <-c:
		return snap, nil
	case <-d.done:
		return nil, ErrDesignClosed
	}
}

// submit queues one edit and waits for its report and the replication seq
// the writer assigned it. A full queue rejects immediately with
// ErrOverloaded; cancellation of ctx abandons the wait (the edit may still
// apply); a closed design returns ErrDesignClosed.
func (d *design) submit(ctx context.Context, ed incsta.Edit) (*incsta.Report, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	select {
	case <-d.quit:
		return nil, 0, ErrDesignClosed
	default:
	}
	req := editReq{ed: ed, reply: make(chan editResult, 1)}
	select {
	case d.reqs <- req:
	default:
		return nil, 0, ErrOverloaded
	}
	select {
	case res := <-req.reply:
		return res.rep, res.seq, res.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-d.done:
		return nil, 0, ErrDesignClosed
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
