package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/incsta"
	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/sta"
	"repro/internal/timinglib"
	"repro/internal/wal"
)

// Store is the server's durability root: one directory per design copy
// holding an atomic snapshot of the full design state plus the write-ahead
// log of edits accepted since that snapshot. A server without a Store (the
// default) is purely in-memory, exactly as before.
//
// Layout under root:
//
//	designs/<escaped-name>/snapshot.json    full state of a design this node owns, and its seq
//	designs/<escaped-name>/wal.log          accepted edits numbered past that seq
//	replicas/<escaped-name>/snapshot.json   last shipped snapshot of a design this node replicates
//	replicas/<escaped-name>/wal.log         replicated edits numbered past that seq
//	leases.json                             per-design ownership leases and promises
//
// Owner and replica copies share one sequence space: a copy's seq counts
// the accepted edits its state includes, its WAL records continue that
// count (record seq = seq+1, seq+2, ...), replication ships the same
// numbers, and its engine serves version seq+1.
type Store struct {
	fs   wal.FS
	root string
	cfg  StoreConfig
}

// The two subtrees of a store, one per role of the copies they hold. Every
// per-copy method of Store takes one.
const (
	ownerSub   = "designs"
	replicaSub = "replicas"
)

// StoreConfig tunes the durability behaviour.
type StoreConfig struct {
	// Policy is the WAL fsync policy (default wal.SyncAlways: an acknowledged
	// edit is durable).
	Policy wal.SyncPolicy
	// FsyncInterval is the background fsync period under wal.SyncInterval.
	FsyncInterval time.Duration
	// SnapshotInterval is how often each design folds its WAL into a fresh
	// snapshot (0 = only at load and graceful shutdown).
	SnapshotInterval time.Duration
	// VerifyRecovery runs a full fresh analysis after replaying each copy's
	// WAL and cross-checks it against the recovered incremental state —
	// expensive, but turns silent recovery corruption into a startup error.
	VerifyRecovery bool
}

// NewStore builds a store rooted at root on fsys (nil = the real
// filesystem). No IO happens until designs are loaded or recovered.
func NewStore(fsys wal.FS, root string, cfg StoreConfig) *Store {
	if fsys == nil {
		fsys = wal.OS()
	}
	return &Store{fs: fsys, root: root, cfg: cfg}
}

const readOnlyFlag = os.O_RDONLY

func isNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// designSnapshot is the persisted form of one design copy: everything
// incsta.New needs to rebuild the engine, plus the copy's seq. Recovery
// replays only WAL records numbered past EditSeq.
type designSnapshot struct {
	Name        string                  `json:"name"`
	Epoch       uint64                  `json:"epoch,omitempty"`    // ownership-lease epoch (cluster mode)
	EditSeq     uint64                  `json:"edit_seq,omitempty"` // accepted edits the state includes: the copy's seq
	Epsilon     float64                 `json:"epsilon,omitempty"`
	Parallelism int                     `json:"parallelism,omitempty"`
	Corners     []sta.Corner            `json:"corners,omitempty"`
	Options     sta.Options             `json:"options"`
	Netlist     *netlist.Netlist        `json:"netlist"`
	Trees       map[string]*rctree.Tree `json:"trees"`
}

// storedSnapshot is a snapshot as read from disk. Snapshots written before
// the WAL logged only accepted edits also carry wal_seq, the record number
// the state included; WALSeq is nil for the current format. Only the
// one-time owner upgrade (upgradeLegacy) reads it.
type storedSnapshot struct {
	designSnapshot
	WALSeq *uint64 `json:"wal_seq,omitempty"`
}

// snapshotOf captures a copy's current state at the version its engine
// published. Must be called where no edit can run concurrently (the
// design's writer loop, or under the replica lock), so the state and the
// seq are coherent.
func snapshotOf(name string, eng *incsta.Engine) *designSnapshot {
	nl, trees := eng.CopyDesign()
	return &designSnapshot{
		Name:        name,
		EditSeq:     eng.Snapshot().Version() - 1,
		Epsilon:     eng.Epsilon(),
		Parallelism: eng.Parallelism(),
		Corners:     eng.Corners(),
		Options:     eng.Options(),
		Netlist:     nl,
		Trees:       trees,
	}
}

// dir is the directory of one copy in a subtree.
func (st *Store) dir(sub, name string) string {
	return filepath.Join(st.root, sub, url.PathEscape(name))
}

func (st *Store) walPath(sub, name string) string {
	return filepath.Join(st.dir(sub, name), "wal.log")
}

// saveSnapshot persists snap, the snapshot of copy name in any encoding,
// crash-safely (temp file, fsync, rename, parent directory fsync): after
// any crash the copy's directory holds either the previous complete
// snapshot or the new one.
func (st *Store) saveSnapshot(sub, name string, snap any) error {
	dir := st.dir(sub, name)
	if err := st.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	err := wal.AtomicWrite(st.fs, filepath.Join(dir, "snapshot.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(snap)
	})
	if err != nil {
		return fmt.Errorf("server: persist %s snapshot of %q: %w", sub, name, err)
	}
	mSnapshotsPersisted.Inc()
	hSnapshotSeconds.ObserveSince(t0)
	return nil
}

// loadSnapshot reads one copy's persisted snapshot by escaped directory
// name.
func (st *Store) loadSnapshot(sub, escaped string) (*storedSnapshot, error) {
	p := filepath.Join(st.root, sub, escaped, "snapshot.json")
	f, err := st.fs.OpenFile(p, readOnlyFlag, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap storedSnapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("server: snapshot %s: %w", p, err)
	}
	if snap.Netlist == nil || snap.Trees == nil {
		return nil, fmt.Errorf("server: snapshot %s: missing netlist or trees", p)
	}
	return &snap, nil
}

// openWAL opens (creating if missing) a copy's log, streaming valid records
// through replay.
func (st *Store) openWAL(sub, name string, replay func(seq uint64, payload []byte) error) (*wal.Log, wal.OpenResult, error) {
	return wal.Open(st.walPath(sub, name), wal.Options{
		FS:       st.fs,
		Policy:   st.cfg.Policy,
		Interval: st.cfg.FsyncInterval,
	}, replay)
}

// install makes snap the whole durable state of a copy and returns its log,
// empty and at snap's seq: it removes the old log, persists the snapshot,
// and opens a fresh log. The log goes first, so no crash leaves the new
// snapshot under records of an older state. A crash between the two steps
// leaves the previous snapshot without its tail, so a caller whose log
// holds records it must keep checkpoints them first.
func (st *Store) install(sub string, snap *designSnapshot) (*wal.Log, error) {
	if err := st.fs.Remove(st.walPath(sub, snap.Name)); err != nil && !isNotExist(err) {
		return nil, err
	}
	if err := st.saveSnapshot(sub, snap.Name, snap); err != nil {
		return nil, err
	}
	lg, _, err := st.openWAL(sub, snap.Name, nil)
	if err != nil {
		return nil, err
	}
	lg.EnsureSeq(snap.EditSeq)
	return lg, nil
}

// checkpoint folds a copy's log into snap, the copy's current state: the
// snapshot is persisted first, then the log truncated. A crash between the
// two leaves records numbered at most snap's seq, which recovery skips.
func (st *Store) checkpoint(sub string, snap *designSnapshot, lg *wal.Log) error {
	if err := st.saveSnapshot(sub, snap.Name, snap); err != nil {
		return err
	}
	if lg != nil {
		return lg.TruncateAll()
	}
	return nil
}

// list returns the escaped directory names of every copy persisted in a
// subtree (empty when the store has never held one).
func (st *Store) list(sub string) ([]string, error) {
	names, err := st.fs.ReadDir(filepath.Join(st.root, sub))
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return names, nil
}

// remove deletes a copy's persisted state (a DELETE, so a restart does not
// resurrect it; a promotion or a tombstone retiring a replica). The
// snapshot removal is made durable with a SyncDir of the copy's directory
// before that directory itself goes; a crash mid-way leaves at worst a
// snapshot-less directory, which recovery skips as debris.
func (st *Store) remove(sub, name string) error {
	dir := st.dir(sub, name)
	var firstErr error
	for _, p := range []string{filepath.Join(dir, "snapshot.json"), st.walPath(sub, name)} {
		if err := st.fs.Remove(p); err != nil && !isNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	if err := st.fs.SyncDir(dir); err != nil && !isNotExist(err) && firstErr == nil {
		firstErr = err
	}
	if err := st.fs.Remove(dir); err != nil && !isNotExist(err) && firstErr == nil {
		firstErr = err
	}
	if err := st.fs.SyncDir(filepath.Join(st.root, sub)); err != nil && !isNotExist(err) && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// hasSnapshot reports whether a persisted copy's directory holds a complete
// snapshot. A directory without one is debris — a crash between mkdir and
// the first atomic snapshot write, or between a removal's file and
// directory steps — and recovery skips it.
func (st *Store) hasSnapshot(sub, escaped string) bool {
	f, err := st.fs.OpenFile(filepath.Join(st.root, sub, escaped, "snapshot.json"), readOnlyFlag, 0)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// --- lease persistence -----------------------------------------------------

func (st *Store) leasesPath() string { return filepath.Join(st.root, "leases.json") }

// saveLeases persists the lease table crash-safely. Durable promises are
// load-bearing: a node that promised epoch E, crashed, and forgot the
// promise could grant E again and break the at-most-one-winner property.
func (st *Store) saveLeases(m map[string]cluster.LeaseInfo) error {
	if err := st.fs.MkdirAll(st.root, 0o755); err != nil {
		return err
	}
	err := wal.AtomicWrite(st.fs, st.leasesPath(), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	})
	if err != nil {
		return fmt.Errorf("server: persist leases: %w", err)
	}
	return nil
}

// loadLeases reads the persisted lease table (empty map when none exists).
func (st *Store) loadLeases() (map[string]cluster.LeaseInfo, error) {
	f, err := st.fs.OpenFile(st.leasesPath(), readOnlyFlag, 0)
	if err != nil {
		if isNotExist(err) {
			return map[string]cluster.LeaseInfo{}, nil
		}
		return nil, err
	}
	defer f.Close()
	m := map[string]cluster.LeaseInfo{}
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("server: leases %s: %w", st.leasesPath(), err)
	}
	return m, nil
}

// rebuildEngine reconstructs a copy's engine from its snapshot (one full
// analysis pass, same as the original load), publishing version seq+1.
func rebuildEngine(lib *timinglib.File, snap *designSnapshot) (*incsta.Engine, error) {
	return incsta.NewAt(lib, snap.Netlist, snap.Trees, incsta.Config{
		Options:     snap.Options,
		Epsilon:     snap.Epsilon,
		Corners:     sta.CornerSet{Corners: snap.Corners},
		Parallelism: snap.Parallelism,
	}, snap.EditSeq)
}
