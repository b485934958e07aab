package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/libsynth"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// legacyFixture is testdata/legacy-v0: the data dir of one node of a
// two-node durable cluster, written by the server before its WAL logged
// only accepted edits (see gen_legacy_test.go there for the command).
const legacyFixture = "testdata/legacy-v0"

type legacyEdit struct {
	Edit   EditRequest `json:"edit"`
	Status int         `json:"status"`
}

type legacyManifest struct {
	Self  string                  `json:"self"`
	Peer  string                  `json:"peer"`
	Owner string                  `json:"owner_design"`
	Rep   string                  `json:"replica_design"`
	Edits map[string][]legacyEdit `json:"edits"`
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bootFixtureNode recovers the fixture node from dir. Its peer is never
// contacted: the cluster node is not started and elections are an hour
// apart.
func bootFixtureNode(t *testing.T, m legacyManifest, dir string) *Server {
	t.Helper()
	cn, err := cluster.NewNode(cluster.Config{Self: m.Self, Peers: []string{m.Peer}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(libsynth.File(), WithCluster(cn),
		WithStore(NewStore(wal.OS(), dir, StoreConfig{Policy: wal.SyncAlways})),
		WithPromotionInterval(time.Hour))
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("recover fixture: %v", err)
	}
	return s
}

// replayAccepted loads c17 as name on a fresh in-memory server and applies
// the edits the fixture's server accepted, in order. It returns the slacks
// and the number of accepted edits.
func replayAccepted(t *testing.T, name string, eds []legacyEdit) (map[string]float64, int) {
	t.Helper()
	s := New(libsynth.File())
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	if code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("reference load: %d %s", code, raw)
	}
	accepted := 0
	for _, e := range eds {
		if e.Status != http.StatusOK {
			continue
		}
		if code, raw := postEdit(t, ts, name, e.Edit); code != http.StatusOK {
			t.Fatalf("reference edit %+v: %d %s", e.Edit, code, raw)
		}
		accepted++
	}
	return slacksOf(t, s, name), accepted
}

// TestLegacyFixtureUpgrades recovers the committed pre-upgrade data dir:
// the owner copy, whose WAL numbers every record and holds a rejected one
// past the snapshot, comes back bit-identical to a replay of its accepted
// edits at version accepted+1 and is rewritten in the current format; the
// replica copy and the leases load unchanged. A second recovery, now on
// the current format, gives the same state.
func TestLegacyFixtureUpgrades(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(legacyFixture, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m legacyManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, legacyFixture, dir)
	ownerSnap := filepath.Join(dir, ownerSub, m.Owner, "snapshot.json")
	before, err := os.ReadFile(ownerSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(before, []byte(`"wal_seq"`)) {
		t.Fatal("fixture owner snapshot is not in the legacy format")
	}
	unchanged := []string{
		"leases.json",
		filepath.Join(replicaSub, m.Rep, "snapshot.json"),
		filepath.Join(replicaSub, m.Rep, "wal.log"),
	}
	orig := map[string][]byte{}
	for _, p := range unchanged {
		if orig[p], err = os.ReadFile(filepath.Join(dir, p)); err != nil {
			t.Fatal(err)
		}
	}
	leases := map[string]cluster.LeaseInfo{}
	if err := json.Unmarshal(orig["leases.json"], &leases); err != nil {
		t.Fatal(err)
	}

	wantOwner, ownerAccepted := replayAccepted(t, m.Owner, m.Edits[m.Owner])
	wantRep, repAccepted := replayAccepted(t, m.Rep, m.Edits[m.Rep])
	for round := 0; round < 2; round++ {
		s := bootFixtureNode(t, m, dir)
		d, ok := s.design(m.Owner)
		if !ok {
			t.Fatalf("round %d: owner design not recovered", round)
		}
		mustEqualSlacks(t, wantOwner, slacksOf(t, s, m.Owner))
		if v := d.eng.Snapshot().Version(); v != uint64(ownerAccepted)+1 {
			t.Fatalf("round %d: owner at version %d after %d accepted edits", round, v, ownerAccepted)
		}
		if d.epoch.Load() != leases[m.Owner].Epoch {
			t.Fatalf("round %d: owner epoch %d, want %d", round, d.epoch.Load(), leases[m.Owner].Epoch)
		}
		rep := s.replica(m.Rep)
		if rep == nil {
			t.Fatalf("round %d: replica not recovered", round)
		}
		eng, seq, epoch := rep.view()
		if seq != uint64(repAccepted) || epoch != leases[m.Rep].Epoch {
			t.Fatalf("round %d: replica at seq %d epoch %d, want %d / %d", round, seq, epoch, repAccepted, leases[m.Rep].Epoch)
		}
		got, err := eng.Snapshot().EndpointSlacks(500e-12, 3)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSlacks(t, wantRep, got)
		for name, li := range leases {
			if cur, _ := s.leases.Current(name); cur != li {
				t.Fatalf("round %d: lease of %s is %+v, want %+v", round, name, cur, li)
			}
		}

		// The upgrade rewrote the owner copy at once, before any drain.
		after, err := os.ReadFile(ownerSnap)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(after, &keys); err != nil {
			t.Fatal(err)
		}
		if _, legacy := keys["wal_seq"]; legacy {
			t.Fatalf("round %d: owner snapshot still in the legacy format", round)
		}
		var snap designSnapshot
		if err := json.Unmarshal(after, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.EditSeq != uint64(ownerAccepted) {
			t.Fatalf("round %d: owner snapshot at seq %d, want %d", round, snap.EditSeq, ownerAccepted)
		}
		if fi, err := os.Stat(filepath.Join(dir, ownerSub, m.Owner, "wal.log")); err != nil || fi.Size() != 0 {
			t.Fatalf("round %d: owner wal after the upgrade: %v, %v", round, fi, err)
		}
		for _, p := range unchanged {
			b, err := os.ReadFile(filepath.Join(dir, p))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, orig[p]) {
				t.Fatalf("round %d: %s changed on recovery", round, p)
			}
		}
		s.Close()
	}
}

// TestLegacyUpgradeCrashSafe crashes the owner upgrade after every write it
// makes, at a torn and a whole write, and requires the strict crash image
// to recover the accepted edits exactly once: the same slacks at version
// accepted+1.
func TestLegacyUpgradeCrashSafe(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(legacyFixture, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m legacyManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want, accepted := replayAccepted(t, m.Owner, m.Edits[m.Owner])
	fixture := func() *faultfs.FS {
		fs := faultfs.New()
		for _, f := range []string{"snapshot.json", "wal.log"} {
			b, err := os.ReadFile(filepath.Join(legacyFixture, ownerSub, m.Owner, f))
			if err != nil {
				t.Fatal(err)
			}
			writeDurable(t, fs, filepath.Join("data", ownerSub, m.Owner, f), b)
		}
		return fs
	}
	recoverOn := func(fs *faultfs.FS) (*Server, error) {
		s := New(libsynth.File(), WithStore(NewStore(fs, "data", StoreConfig{Policy: wal.SyncAlways})))
		return s, s.Recover(context.Background())
	}
	check := func(what string, s *Server) {
		t.Helper()
		d, ok := s.design(m.Owner)
		if !ok {
			t.Fatalf("%s: owner design not recovered", what)
		}
		mustEqualSlacks(t, want, slacksOf(t, s, m.Owner))
		if v := d.eng.Snapshot().Version(); v != uint64(accepted)+1 {
			t.Fatalf("%s: version %d after %d accepted edits", what, v, accepted)
		}
	}

	clean := fixture()
	base := clean.Writes()
	s, err := recoverOn(clean)
	if err != nil {
		t.Fatal(err)
	}
	check("clean upgrade", s)
	s.Close()
	writes := clean.Writes() - base
	if writes < 2 {
		t.Fatalf("the upgrade made %d writes", writes)
	}
	for n := 1; n <= writes; n++ {
		for _, keep := range []int{0, 1 << 20} {
			what := fmt.Sprintf("crash at write %d keep %d", n, keep)
			fs := fixture()
			fs.CrashAfterWrites(fs.Writes()+n, keep)
			if s, err := recoverOn(fs); err == nil {
				s.Close()
			}
			fs.SetDropUnsynced(true)
			s, err := recoverOn(fs.Image())
			if err != nil {
				t.Fatalf("%s: recover the image: %v", what, err)
			}
			check(what, s)
			s.Close()
		}
	}
}
