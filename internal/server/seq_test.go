package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/libsynth"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// servedVersion reads a design's version through the summary route.
func servedVersion(t *testing.T, base, name string) uint64 {
	t.Helper()
	var sum DesignSummary
	if code, raw := do(t, http.MethodGet, base+"/v1/designs/"+name, nil, &sum); code != http.StatusOK {
		t.Fatalf("summary of %s: %d %s", name, code, raw)
	}
	return sum.Version
}

// replayEngineSlacks loads c17 on a fresh in-memory server and applies eds,
// requiring each to be accepted, and returns the resulting slacks.
func replayEngineSlacks(t *testing.T, eds []EditRequest) map[string]float64 {
	t.Helper()
	s := New(libsynth.File())
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	loadC17(t, ts)
	for _, ed := range eds {
		if code, raw := postEdit(t, ts, "c17", ed); code != http.StatusOK {
			t.Fatalf("reference edit %+v: %d %s", ed, code, raw)
		}
	}
	return slacksOf(t, s, "c17")
}

// sameSlacks reports whether two slack maps are bit-identical.
func sameSlacks(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestWALFailureFailStops: when the WAL fsync of an edit fails, the edit is
// answered 500 in doubt, every later edit 503 without applying, reads keep
// the last acknowledged state, and the crash image recovers either that
// state or that state plus the in-doubt edit — under both faultfs readings,
// never a state that loses an acknowledged edit.
func TestWALFailureFailStops(t *testing.T) {
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("drop_unsynced=%v", strict), func(t *testing.T) {
			fs := faultfs.New()
			s, ts := newDurableServer(t, fs)
			loadC17(t, ts)
			acked := []EditRequest{
				{Op: "resize", Gate: "U1", Strength: 4},
				{Op: "set_input_slew", Net: "G1", SlewPs: 15},
				{Op: "swap", Gate: "U2", Cell: "NAND2x4"},
			}
			for i, ed := range acked {
				if code, raw := postEdit(t, ts, "c17", ed); code != http.StatusOK {
					t.Fatalf("edit %d: %d %s", i, code, raw)
				}
			}
			ackedSlacks := slacksOf(t, s, "c17")
			ackedVersion := servedVersion(t, ts.URL, "c17")
			snapBefore, err := fs.ReadFile("data/designs/c17/snapshot.json")
			if err != nil {
				t.Fatal(err)
			}

			doubt := EditRequest{Op: "resize", Gate: "U5", Strength: 8}
			fs.FailNthSync(fs.SyncsSeen() + 1) // the append's fsync
			code, raw := postEdit(t, ts, "c17", doubt)
			if code != http.StatusInternalServerError || !strings.Contains(raw, "in doubt") {
				t.Fatalf("edit with a failed fsync: %d %s, want 500 in doubt", code, raw)
			}
			for i, ed := range []EditRequest{{Op: "resize", Gate: "U6", Strength: 4}, doubt} {
				if code, raw := postEdit(t, ts, "c17", ed); code != http.StatusServiceUnavailable {
					t.Fatalf("edit %d after the WAL failure: %d %s, want 503", i, code, raw)
				}
			}
			mustEqualSlacks(t, ackedSlacks, slacksOf(t, s, "c17"))
			if v := servedVersion(t, ts.URL, "c17"); v != ackedVersion {
				t.Fatalf("served version %d after the WAL failure, want %d", v, ackedVersion)
			}
			d, _ := s.design("c17")
			if err := d.checkpoint(); err == nil {
				t.Fatal("a failed design took a checkpoint")
			}

			fs.SetDropUnsynced(strict)
			img := fs.Image()
			ts.Close()
			s.Close() // no drain snapshot either
			if b, _ := fs.ReadFile("data/designs/c17/snapshot.json"); string(b) != string(snapBefore) {
				t.Fatal("a failed design wrote a snapshot")
			}

			s2, ts2 := newDurableServer(t, img)
			got, v := slacksOf(t, s2, "c17"), servedVersion(t, ts2.URL, "c17")
			withDoubt := replayEngineSlacks(t, append(append([]EditRequest{}, acked...), doubt))
			switch {
			case v == ackedVersion && sameSlacks(got, ackedSlacks):
			case v == ackedVersion+1 && sameSlacks(got, withDoubt):
			default:
				t.Fatalf("recovered version %d is neither the acknowledged state (version %d) nor it plus the in-doubt edit", v, ackedVersion)
			}
			if code, raw := postEdit(t, ts2, "c17", EditRequest{Op: "resize", Gate: "U6", Strength: 4}); code != http.StatusOK {
				t.Fatalf("edit after the restart: %d %s", code, raw)
			}
		})
	}
}

// versionTracker requires every acknowledged edit's version to be the
// previous one + 1: strictly increasing and gap-free.
type versionTracker struct {
	t        *testing.T
	last     uint64
	accepted int
}

// post sends one edit to base and checks its version.
func (vt *versionTracker) post(base, name string, ed EditRequest) {
	vt.t.Helper()
	var er EditResponse
	code, raw := do(vt.t, http.MethodPost, base+"/v1/designs/"+name+"/edits", ed, &er)
	switch code {
	case http.StatusOK:
		if er.Version != vt.last+1 {
			vt.t.Fatalf("edit %+v acknowledged as version %d after %d", ed, er.Version, vt.last)
		}
		vt.last = er.Version
		vt.accepted++
	case http.StatusBadRequest:
	default:
		vt.t.Fatalf("edit %+v: %d %s", ed, code, raw)
	}
}

// served requires the served version to be the last acknowledged one, and
// accepted edits + 1.
func (vt *versionTracker) served(base, name, phase string) {
	vt.t.Helper()
	if v := servedVersion(vt.t, base, name); v != vt.last || v != uint64(vt.accepted)+1 {
		vt.t.Fatalf("%s: served version %d, last acknowledged %d, %d edits accepted", phase, v, vt.last, vt.accepted)
	}
}

// TestVersionsSurviveRestarts: on a single node, versions stay strictly
// increasing and gap-free across a checkpoint, a crash recovery, a graceful
// drain and restart, and a crash with an unfolded WAL tail; after N
// accepted edits the version is N+1.
func TestVersionsSurviveRestarts(t *testing.T) {
	fs := faultfs.New()
	s, ts := newDurableServer(t, fs)
	loadC17(t, ts)
	vt := &versionTracker{t: t, last: 1}
	for _, ed := range c17Edits() {
		vt.post(ts.URL, "c17", ed)
	}
	d, _ := s.design("c17")
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	vt.served(ts.URL, "c17", "after the checkpoint")

	// Crash right after the checkpoint: the snapshot alone carries the seq.
	fs = fs.Image()
	s, ts = newDurableServer(t, fs)
	vt.served(ts.URL, "c17", "after a crash at the checkpoint")
	vt.post(ts.URL, "c17", EditRequest{Op: "resize", Gate: "U6", Strength: 4})
	vt.post(ts.URL, "c17", EditRequest{Op: "resize", Gate: "NOPE", Strength: 2})
	vt.post(ts.URL, "c17", EditRequest{Op: "set_input_slew", Net: "G7", SlewPs: 25})

	// Graceful drain: the final snapshot folds the tail.
	ts.Close()
	s.Close()
	fs = fs.Image()
	s, ts = newDurableServer(t, fs)
	vt.served(ts.URL, "c17", "after a graceful restart")
	vt.post(ts.URL, "c17", EditRequest{Op: "resize", Gate: "U3", Strength: 8})

	// Crash with the tail still in the WAL.
	fs.SetDropUnsynced(true)
	s, ts = newDurableServer(t, fs.Image())
	vt.served(ts.URL, "c17", "after a crash with a WAL tail")
	vt.post(ts.URL, "c17", EditRequest{Op: "resize", Gate: "U4", Strength: 4})
	vt.served(ts.URL, "c17", "at the end")
}

// settledOwner waits until exactly one node owns name unfenced and every
// other node holds a replica copy at the owner's seq, and returns the owner.
func settledOwner(t *testing.T, nodes []*clusterNode, name string) *clusterNode {
	t.Helper()
	var owner *clusterNode
	waitUntil(t, "one settled owner of "+name, func() bool {
		owner = nil
		var ownerSeq uint64
		for _, cn := range nodes {
			if d, ok := cn.s.design(name); ok && !d.fenced.Load() {
				if owner != nil {
					return false
				}
				owner, ownerSeq = cn, d.seq()
			}
		}
		if owner == nil {
			return false
		}
		for _, cn := range nodes {
			if cn == owner {
				continue
			}
			rep := cn.s.replica(name)
			if rep == nil {
				return false
			}
			if eng, seq, _ := rep.view(); eng == nil || seq != ownerSeq {
				return false
			}
		}
		return true
	})
	return owner
}

// bootDurableCluster boots a three-node durable cluster in which every node
// replicates every design, from the data dirs in dirs (one per URL).
func bootDurableCluster(t *testing.T, urls []string, lns []net.Listener, dirs map[string]string) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, len(urls))
	for i, u := range urls {
		ln := lns[i]
		if ln == nil {
			ln = rebind(t, u)
		}
		nodes[i] = bootDurableNodeReplicas(t, u, ln, urls, dirs[u], 2, nil)
	}
	return nodes
}

// TestClusterVersionsSurviveRestarts is the three-node half: versions stay
// strictly increasing and gap-free across a checkpoint, a crash of every
// node, and a graceful restart of every node, whichever node wins each
// re-election; after N accepted edits the version is N+1.
func TestClusterVersionsSurviveRestarts(t *testing.T) {
	const name = "c17-restarts"
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	dirs := map[string]string{}
	root := t.TempDir()
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = l, "http://"+l.Addr().String()
		dirs[urls[i]] = filepath.Join(root, fmt.Sprint(i))
	}
	nodes := bootDurableCluster(t, urls, lns, dirs)
	if code, raw := do(t, http.MethodPut, nodes[0].url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("load: %d %s", code, raw)
	}
	vt := &versionTracker{t: t, last: 1}
	owner := settledOwner(t, nodes, name)
	edits := c17Edits()
	vt.post(owner.url, name, edits[0])
	vt.post(owner.url, name, edits[1])
	d, _ := owner.s.design(name)
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, ed := range edits[2:] {
		vt.post(owner.url, name, ed)
	}
	settledOwner(t, nodes, name)
	vt.served(owner.url, name, "before the crash")

	// Crash every node: copy each data dir while the cluster is quiet
	// (every acknowledged edit is fsynced), then boot fresh nodes on the
	// copies under the same URLs.
	crashed := map[string]string{}
	for _, cn := range nodes {
		crashed[cn.url] = filepath.Join(root, "crash-"+filepath.Base(dirs[cn.url]))
		copyTree(t, dirs[cn.url], crashed[cn.url])
	}
	for _, cn := range nodes {
		killNode(cn)
	}
	nodes = bootDurableCluster(t, urls, make([]net.Listener, 3), crashed)
	owner = settledOwner(t, nodes, name)
	vt.served(owner.url, name, "after a crash of every node")
	vt.post(owner.url, name, EditRequest{Op: "resize", Gate: "U6", Strength: 4})
	vt.post(owner.url, name, EditRequest{Op: "set_input_slew", Net: "G7", SlewPs: 25})

	// Graceful restart of every node: each drains and checkpoints.
	settledOwner(t, nodes, name)
	for _, cn := range nodes {
		killNode(cn)
	}
	nodes = bootDurableCluster(t, urls, make([]net.Listener, 3), crashed)
	owner = settledOwner(t, nodes, name)
	vt.served(owner.url, name, "after a graceful restart")
	vt.post(owner.url, name, EditRequest{Op: "resize", Gate: "U3", Strength: 8})
	vt.served(owner.url, name, "at the end")
}

// walRecords reads every record of a live log file through a copy, so the
// original is never repositioned or truncated.
func walRecords(t *testing.T, path string) map[uint64]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(cp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out := map[uint64]string{}
	lg, _, err := wal.Open(cp, wal.Options{}, func(seq uint64, p []byte) error {
		out[seq] = string(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	return out
}

// TestReplicaWALMatchesOwner: with rejected edits mixed into the stream,
// the replica's WAL holds, over the seq range it shares with the owner's,
// records with the same seqs and byte-equal payloads, and ends where the
// owner's ends.
func TestReplicaWALMatchesOwner(t *testing.T) {
	const name = "c17-wal"
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	dirs := map[string]string{}
	root := t.TempDir()
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = l, "http://"+l.Addr().String()
		dirs[urls[i]] = filepath.Join(root, fmt.Sprint(i))
	}
	nodes := bootDurableCluster(t, urls, lns, dirs)
	if code, raw := do(t, http.MethodPut, nodes[0].url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("load: %d %s", code, raw)
	}
	owner := settledOwner(t, nodes, name)
	vt := &versionTracker{t: t, last: 1}
	for _, ed := range append(c17Edits(),
		EditRequest{Op: "swap", Gate: "U1", Cell: "INVx1"}, // rejected: pin mismatch
		EditRequest{Op: "resize", Gate: "U3", Strength: 2},
		EditRequest{Op: "set_input_slew", Net: "NOPE", SlewPs: 10}, // rejected: not an input
		EditRequest{Op: "resize", Gate: "U6", Strength: 8},
	) {
		vt.post(owner.url, name, ed)
	}
	settledOwner(t, nodes, name)

	esc := filepath.Base(owner.s.store.dir(ownerSub, name))
	own := walRecords(t, filepath.Join(dirs[owner.url], ownerSub, esc, "wal.log"))
	if len(own) != vt.accepted {
		t.Fatalf("owner WAL holds %d records for %d accepted edits", len(own), vt.accepted)
	}
	for _, cn := range nodes {
		if cn == owner {
			continue
		}
		rep := walRecords(t, filepath.Join(dirs[cn.url], replicaSub, esc, "wal.log"))
		var last uint64
		for seq, p := range rep {
			if o, ok := own[seq]; !ok || o != p {
				t.Fatalf("replica %s record %d is %q, the owner's is %q (present %v)", cn.url, seq, p, o, ok)
			}
			last = max(last, seq)
		}
		if len(rep) == 0 || last != uint64(vt.accepted) {
			t.Fatalf("replica %s WAL holds %d records ending at seq %d, want it to end at %d", cn.url, len(rep), last, vt.accepted)
		}
	}
}

// TestReplicaWALFailureDiscardsCopy: a replica whose WAL append fails
// discards its copy, the owner's repair ships a snapshot, and the edit is
// still acknowledged. The replica's durable copy is then that snapshot plus
// the records streamed after it, and it holds the owner's state.
func TestReplicaWALFailureDiscardsCopy(t *testing.T) {
	fss := make([]*faultfs.FS, 3)
	nodes := newTestClusterWith(t, 3, false, func(i int) []Option {
		fss[i] = faultfs.New()
		return []Option{WithStore(NewStore(fss[i], "data", StoreConfig{Policy: wal.SyncAlways}))}
	})
	for _, cn := range nodes {
		if err := cn.s.Recover(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	const name = "c17-repfail"
	owner, replica, _ := byRole(t, nodes, name)
	var rfs *faultfs.FS
	for i, cn := range nodes {
		if cn == replica {
			rfs = fss[i]
		}
	}
	if code, raw := do(t, http.MethodPut, owner.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("load: %d %s", code, raw)
	}
	d, _ := owner.s.design(name)
	caughtUp := func(what string) {
		t.Helper()
		waitUntil(t, what, func() bool {
			rep := replica.s.replica(name)
			if rep == nil {
				return false
			}
			eng, seq, _ := rep.view()
			return eng != nil && seq == d.seq()
		})
	}
	caughtUp("replica copy")
	vt := &versionTracker{t: t, last: 1}
	edits := []EditRequest{
		{Op: "resize", Gate: "U1", Strength: 4},
		{Op: "set_input_slew", Net: "G1", SlewPs: 15},
		{Op: "swap", Gate: "U2", Cell: "NAND2x4"},
	}
	vt.post(owner.url, name, edits[0])
	caughtUp("replica at seq 1")

	rfs.FailNthSync(rfs.SyncsSeen() + 1) // the replica's append of edit 2
	vt.post(owner.url, name, edits[1])
	caughtUp("replica repaired at seq 2")
	vt.post(owner.url, name, edits[2])
	caughtUp("replica at seq 3")
	eng, _, _ := replica.s.replica(name).view()
	got, err := eng.Snapshot().EndpointSlacks(500e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSlacks(t, slacksOf(t, owner.s, name), got)

	st := NewStore(rfs.Image(), "data", StoreConfig{Policy: wal.SyncAlways})
	esc := filepath.Base(st.dir(replicaSub, name))
	snap, err := st.loadSnapshot(replicaSub, esc)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	lg, _, err := st.openWAL(replicaSub, name, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if snap.EditSeq != 2 || fmt.Sprint(seqs) != "[3]" {
		t.Fatalf("replica durable copy: snapshot at seq %d, WAL records %v; want the repair at 2 and record 3", snap.EditSeq, seqs)
	}
}

// TestVersionCoherentAnswers: while edits stream in, every slacks answer
// from the owner and from a replica equals a reference replay at the
// version that answer reports.
func TestVersionCoherentAnswers(t *testing.T) {
	nodes := newTestCluster(t, 3, false)
	const name = "c17-coherent"
	owner, replica, _ := byRole(t, nodes, name)
	if code, raw := do(t, http.MethodPut, owner.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("load: %d %s", code, raw)
	}
	waitUntil(t, "replica copy", func() bool { return replica.s.replica(name) != nil })

	type answer struct {
		Version uint64             `json:"version"`
		Slacks  map[string]float64 `json:"slacks_ps"`
	}
	var mu sync.Mutex
	var answers []answer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, base := range []string{owner.url, replica.url} {
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func(base string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var a answer
					if code, _ := do(t, http.MethodGet, base+"/v1/designs/"+name+"/slacks?period_ps=500", nil, &a); code == http.StatusOK {
						mu.Lock()
						answers = append(answers, a)
						mu.Unlock()
					}
				}
			}(base)
		}
	}

	// One client streams the edits, so versions follow post order.
	var accepted []EditRequest
	gates := []string{"U1", "U2", "U3", "U4", "U5", "U6"}
	for i := 0; i < 24; i++ {
		ed := EditRequest{Op: "resize", Gate: gates[i%len(gates)], Strength: []int{4, 8, 2, 1}[(i/len(gates))%4]}
		switch {
		case i%5 == 4:
			ed = EditRequest{Op: "resize", Gate: "NOPE", Strength: 2}
		case i%3 == 2:
			ed = EditRequest{Op: "set_input_slew", Net: "G3", SlewPs: float64(10 + i)}
		}
		var er EditResponse
		code, raw := do(t, http.MethodPost, owner.url+"/v1/designs/"+name+"/edits", ed, &er)
		switch code {
		case http.StatusOK:
			accepted = append(accepted, ed)
			if er.Version != uint64(len(accepted))+1 {
				t.Fatalf("edit %d acknowledged as version %d after %d accepted", i, er.Version, len(accepted)-1)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("edit %d: %d %s", i, code, raw)
		}
	}
	close(stop)
	wg.Wait()

	// The reference: slacks at every version of one sequential replay.
	ref := New(libsynth.File())
	rts := httptest.NewServer(ref.Handler())
	defer func() { rts.Close(); ref.Close() }()
	if code, raw := do(t, http.MethodPut, rts.URL+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("reference load: %d %s", code, raw)
	}
	at := map[uint64]map[string]float64{}
	for v := uint64(1); ; v++ {
		var a answer
		if code, raw := do(t, http.MethodGet, rts.URL+"/v1/designs/"+name+"/slacks?period_ps=500", nil, &a); code != http.StatusOK || a.Version != v {
			t.Fatalf("reference slacks at version %d: %d %s", v, code, raw)
		}
		at[v] = a.Slacks
		if int(v) > len(accepted) {
			break
		}
		if code, raw := postEdit(t, rts, name, accepted[v-1]); code != http.StatusOK {
			t.Fatalf("reference edit %d: %d %s", v, code, raw)
		}
	}
	if len(answers) == 0 {
		t.Fatal("no query was answered")
	}
	for i, a := range answers {
		want, ok := at[a.Version]
		if !ok {
			t.Fatalf("answer %d reports version %d, never reached", i, a.Version)
		}
		if !sameSlacks(a.Slacks, want) {
			t.Fatalf("answer %d at version %d differs from the reference replay at that version", i, a.Version)
		}
	}
}
