package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/incsta"
	"repro/internal/libsynth"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// TestRecoverReplaysTailAsOneBatch: a WAL tail interleaving accepted and
// rejected records recovers with bit-identical slacks, the same engine
// version and edit count, and exactly one publish for the whole replay.
func TestRecoverReplaysTailAsOneBatch(t *testing.T) {
	fs := faultfs.New()
	s, ts := newDurableServer(t, fs)
	loadC17(t, ts)
	edits := append(c17Edits(),
		EditRequest{Op: "swap", Gate: "U1", Cell: "INVx1"},       // rejected: pin mismatch
		EditRequest{Op: "set_input_slew", Net: "G2", SlewPs: -5}, // rejected: non-positive slew
		EditRequest{Op: "resize", Gate: "U3", Strength: 2},
		EditRequest{Op: "resize", Gate: "U3", Strength: 2},         // no-op, still a version
		EditRequest{Op: "set_input_slew", Net: "NOPE", SlewPs: 10}, // rejected: not an input
		EditRequest{Op: "resize", Gate: "U6", Strength: 8},
	)
	accepted := 0
	for i, ed := range edits {
		switch code, raw := postEdit(t, ts, "c17", ed); code {
		case http.StatusOK:
			accepted++
		case http.StatusBadRequest:
		default:
			t.Fatalf("edit %d: status %d: %s", i, code, raw)
		}
	}
	if accepted == len(edits) || accepted == 0 {
		t.Fatalf("%d of %d edits accepted; the tail must mix both", accepted, len(edits))
	}
	want := slacksOf(t, s, "c17")
	d, _ := s.design("c17")
	wantVersion := d.eng.Snapshot().Version()

	fs.SetDropUnsynced(true)
	s2, _ := newDurableServer(t, fs.Image())
	mustEqualSlacks(t, want, slacksOf(t, s2, "c17"))
	d2, _ := s2.design("c17")
	snap := d2.eng.Snapshot()
	if v := snap.Version(); v != wantVersion {
		t.Fatalf("recovered version %d, want %d", v, wantVersion)
	}
	st := snap.Stats()
	if st.Edits != uint64(accepted) {
		t.Fatalf("recovered engine applied %d edits, want %d", st.Edits, accepted)
	}
	if st.Publishes != 2 {
		t.Fatalf("recovery published %d snapshots, want 2 (rebuild + one replay batch)", st.Publishes)
	}
}

// replicaFixture persists a replica of c17 — a shipped snapshot at
// replication seq 5 plus tail as its replicated edit log — into a fresh
// filesystem, and returns that filesystem and the snapshot.
func replicaFixture(t *testing.T, tail []incsta.Edit) (*faultfs.FS, *designSnapshot) {
	t.Helper()
	s, ts := newDurableServer(t, faultfs.New())
	loadC17(t, ts)
	d, _ := s.design("c17")
	base := snapshotOf("c17", d.eng, 0)
	base.EditSeq, base.Epoch = 5, 2

	fs := faultfs.New()
	st := NewStore(fs, "data", StoreConfig{Policy: wal.SyncAlways})
	if err := st.saveReplicaSnapshot(base); err != nil {
		t.Fatal(err)
	}
	rlog, _, err := st.openReplicaWAL("c17", nil)
	if err != nil {
		t.Fatal(err)
	}
	rlog.EnsureSeq(base.EditSeq)
	for _, ed := range tail {
		payload, err := json.Marshal(ed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rlog.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, base
}

// bootReplicaHolder recovers a cluster-mode server from fs. Its only peer
// is unreachable, so no election can move the recovered replica.
func bootReplicaHolder(t *testing.T, fs *faultfs.FS) *Server {
	t.Helper()
	cn, err := cluster.NewNode(cluster.Config{
		Self:  "http://127.0.0.1:9",
		Peers: []string{"http://127.0.0.1:7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(libsynth.File(), WithCluster(cn),
		WithStore(NewStore(fs, "data", StoreConfig{Policy: wal.SyncAlways})),
		WithPromotionInterval(time.Hour))
	t.Cleanup(func() {
		s.Close()
		cn.Close()
	})
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s
}

// TestRecoverReplicaReplaysTailAsOneBatch: a replica's replicated edit tail
// recovers bit-identically to an edit-by-edit replay with one publish, and
// a tail holding a rejected edit discards the copy.
func TestRecoverReplicaReplaysTailAsOneBatch(t *testing.T) {
	tail := []incsta.Edit{
		{Op: incsta.OpResize, Gate: "U1", Strength: 4},
		{Op: incsta.OpSetInputSlew, Net: "G1", Slew: 15e-12},
		{Op: incsta.OpSwap, Gate: "U2", Cell: "NAND2x4"},
		{Op: incsta.OpResize, Gate: "U2", Strength: 4}, // no-op
		{Op: incsta.OpResize, Gate: "U5", Strength: 8},
	}
	fs, base := replicaFixture(t, tail)
	s := bootReplicaHolder(t, fs)
	s.repMu.Lock()
	rep, ok := s.reps["c17"]
	s.repMu.Unlock()
	if !ok {
		t.Fatal("replica not recovered")
	}
	eng, seq, epoch := rep.view()
	if seq != base.EditSeq+uint64(len(tail)) || epoch != base.Epoch {
		t.Fatalf("recovered seq %d epoch %d, want %d / %d", seq, epoch, base.EditSeq+uint64(len(tail)), base.Epoch)
	}
	if p := eng.Snapshot().Stats().Publishes; p != 2 {
		t.Fatalf("replica recovery published %d snapshots, want 2 (rebuild + one replay batch)", p)
	}
	ref, err := rebuildEngine(libsynth.File(), base)
	if err != nil {
		t.Fatal(err)
	}
	for i, ed := range tail {
		if _, err := ref.ApplyEdit(ed); err != nil {
			t.Fatalf("reference edit %d: %v", i, err)
		}
	}
	want, err := ref.Snapshot().EndpointSlacks(500e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Snapshot().EndpointSlacks(500e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSlacks(t, want, got)
	if v, rv := eng.Snapshot().Version(), ref.Snapshot().Version(); v != rv {
		t.Fatalf("replica version %d, want %d", v, rv)
	}

	// The owner ships only applied edits: a rejected one in the tail means
	// the copy diverged, and recovery discards it.
	bad := append(append([]incsta.Edit{}, tail[:2]...),
		incsta.Edit{Op: incsta.OpResize, Gate: "NOPE", Strength: 2})
	bad = append(bad, tail[2:]...)
	fs, _ = replicaFixture(t, bad)
	s = bootReplicaHolder(t, fs)
	s.repMu.Lock()
	_, ok = s.reps["c17"]
	s.repMu.Unlock()
	if ok {
		t.Fatal("replica with a rejected edit in its tail was kept")
	}
	if left, err := s.store.listReplicas(); err != nil || len(left) != 0 {
		t.Fatalf("discarded replica left %v on disk (err %v)", left, err)
	}
}

// concurrentEdits posts clients × per edits to one design concurrently and
// returns the version each accepted edit was acknowledged with, keyed by
// the edit's WAL payload. Every edit is distinct (its own input slew or its
// own gate/strength pair); every seventh is rejected (unknown gate).
func concurrentEdits(t *testing.T, base, name string, clients, per int) map[string]uint64 {
	t.Helper()
	gates := []string{"U1", "U2", "U3", "U4", "U5", "U6"}
	inputs := []string{"G1", "G2", "G3", "G6", "G7"}
	var mu sync.Mutex
	versions := map[string]uint64{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				i := c*per + j
				req := EditRequest{Op: incsta.OpSetInputSlew, Net: inputs[i%len(inputs)], SlewPs: float64(10 + i)}
				switch {
				case i%7 == 0:
					req = EditRequest{Op: incsta.OpResize, Gate: "NOPE", Strength: 2}
				case i%3 == 0 && i/3 < 4*len(gates):
					req = EditRequest{Op: incsta.OpResize, Gate: gates[(i/3)%len(gates)], Strength: []int{1, 2, 4, 8}[(i/3)/len(gates)]}
				}
				var resp EditResponse
				code, raw := do(t, http.MethodPost, base+"/v1/designs/"+name+"/edits", req, &resp)
				if code == http.StatusBadRequest && req.Gate == "NOPE" {
					continue
				}
				if code != http.StatusOK {
					t.Errorf("client %d edit %d: status %d: %s", c, j, code, raw)
					return
				}
				payload, _ := json.Marshal(incsta.Edit{Op: req.Op, Gate: req.Gate, Strength: req.Strength,
					Net: req.Net, Slew: req.SlewPs * 1e-12})
				mu.Lock()
				versions[string(payload)] = resp.Version
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return versions
}

// assertGapFree requires the acknowledged versions to be distinct and to
// run consecutively from first.
func assertGapFree(t *testing.T, versions map[string]uint64, first uint64) {
	t.Helper()
	seen := make(map[uint64]bool, len(versions))
	for _, v := range versions {
		if seen[v] {
			t.Fatalf("version %d acknowledged twice", v)
		}
		seen[v] = true
	}
	for v := first; v < first+uint64(len(versions)); v++ {
		if !seen[v] {
			t.Fatalf("versions %d..%d have a gap at %d", first, first+uint64(len(versions))-1, v)
		}
	}
}

// TestConcurrentEditVersionsMatchReplay: edits from concurrent clients are
// acknowledged with distinct, gap-free versions that follow WAL order, and a
// replay of the WAL onto the initial snapshot assigns every edit the same
// version it was acknowledged with.
func TestConcurrentEditVersionsMatchReplay(t *testing.T) {
	fs := faultfs.New()
	s, ts := newDurableServer(t, fs)
	loadC17(t, ts)
	versions := concurrentEdits(t, ts.URL, "c17", 6, 10)
	assertGapFree(t, versions, 2) // version 1 is the initial analysis

	img := fs.Image()
	snapBytes, err := img.ReadFile("data/designs/c17/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap designSnapshot
	if err := json.Unmarshal(snapBytes, &snap); err != nil {
		t.Fatal(err)
	}
	var payloads []string
	var tail []incsta.Edit
	lg, _, err := wal.Open("data/designs/c17/wal.log", wal.Options{FS: img}, func(_ uint64, p []byte) error {
		var ed incsta.Edit
		if err := json.Unmarshal(p, &ed); err != nil {
			return err
		}
		payloads = append(payloads, string(p))
		tail = append(tail, ed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	ref, err := rebuildEngine(libsynth.File(), &snap)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ref.ApplyBatch(tail)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, r := range results {
		v, acked := versions[payloads[i]]
		if r.Err != nil {
			if acked {
				t.Fatalf("WAL record %d acknowledged at version %d but rejected on replay: %v", i, v, r.Err)
			}
			continue
		}
		if !acked || v != r.Report.Version {
			t.Fatalf("WAL record %d: acknowledged version %d (acked %v), replay version %d", i, v, acked, r.Report.Version)
		}
		if v <= last {
			t.Fatalf("WAL record %d: version %d after %d breaks WAL order", i, v, last)
		}
		last = v
	}
	want, err := ref.Snapshot().EndpointSlacks(500e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSlacks(t, want, slacksOf(t, s, "c17"))
}

// TestClusterConcurrentEditVersionsDistinct is the cluster-mode half: an
// owner replicating every edit acknowledges concurrent edits with distinct,
// gap-free versions (replication seq + 1).
func TestClusterConcurrentEditVersionsDistinct(t *testing.T) {
	nodes := newTestCluster(t, 3, false)
	const name = "c17-versions"
	owner, _, _ := byRole(t, nodes, name)
	if code, raw := do(t, http.MethodPut, owner.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("load: %d: %s", code, raw)
	}
	assertGapFree(t, concurrentEdits(t, owner.url, name, 6, 10), 2)
}
