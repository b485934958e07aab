package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/incsta"
	"repro/internal/libsynth"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// newDurableServer builds a server persisting into a fault-injection
// filesystem under root "data", with WAL fsync on every append.
func newDurableServer(t *testing.T, fs *faultfs.FS, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	st := NewStore(fs, "data", StoreConfig{Policy: wal.SyncAlways})
	s := New(libsynth.File(), append([]Option{WithStore(st)}, opts...)...)
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// slacksOf reads the primary-corner endpoint slacks straight off a design's
// engine — the ground truth the HTTP slacks route serves.
func slacksOf(t *testing.T, s *Server, name string) map[string]float64 {
	t.Helper()
	d, ok := s.design(name)
	if !ok {
		t.Fatalf("design %q not loaded", name)
	}
	slacks, err := d.eng.Snapshot().EndpointSlacks(500e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return slacks
}

// mustEqualSlacks requires bit-identical endpoint slacks.
func mustEqualSlacks(t *testing.T, want, got map[string]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("endpoint count %d vs %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("endpoint %s missing after recovery", k)
		}
		if g != w {
			t.Fatalf("endpoint %s: recovered slack %v, want %v", k, g, w)
		}
	}
}

// c17Edits is the edit burst the recovery tests drive: every op kind, plus
// one rejected edit that must leave no trace in the WAL or the recovered
// state.
func c17Edits() []EditRequest {
	return []EditRequest{
		{Op: "resize", Gate: "U1", Strength: 4},
		{Op: "set_input_slew", Net: "G1", SlewPs: 15},
		{Op: "swap", Gate: "U2", Cell: "NAND2x4"},
		{Op: "resize", Gate: "NOPE", Strength: 2}, // rejected: unknown gate
		{Op: "resize", Gate: "U5", Strength: 8},
	}
}

// engineEdit is the engine's Edit record of a wire edit request, the form
// the edit handler logs.
func engineEdit(ed EditRequest) incsta.Edit {
	return incsta.Edit{
		Op: ed.Op, Gate: ed.Gate, Strength: ed.Strength,
		Cell: ed.Cell, Net: ed.Net, Slew: ed.SlewPs * 1e-12, Tree: ed.Tree,
	}
}

func postEdit(t *testing.T, ts *httptest.Server, design string, ed EditRequest) (int, string) {
	t.Helper()
	return do(t, http.MethodPost, ts.URL+"/v1/designs/"+design+"/edits", ed, nil)
}

// TestRecoverAfterHardCrash: load, edit, power-cut (no drain, no final
// snapshot), remount the durable image, recover — the design must come back
// with bit-identical timing. The initial snapshot plus the fsynced WAL tail
// is the whole story.
func TestRecoverAfterHardCrash(t *testing.T) {
	fs := faultfs.New()
	s, ts := newDurableServer(t, fs)
	loadC17(t, ts)
	for i, ed := range c17Edits() {
		code, raw := postEdit(t, ts, "c17", ed)
		wantCode := http.StatusOK
		if i == 3 {
			wantCode = http.StatusBadRequest // the deliberately bad edit
		}
		if code != wantCode {
			t.Fatalf("edit %d: status %d: %s", i, code, raw)
		}
	}
	want := slacksOf(t, s, "c17")

	// Power cut: everything not fsynced is gone.
	fs.SetDropUnsynced(true)
	img := fs.Image()

	s2, _ := newDurableServer(t, img)
	mustEqualSlacks(t, want, slacksOf(t, s2, "c17"))

	// The recovered design keeps serving edits, and sequence numbers resume
	// past the replayed tail.
	d, _ := s2.design("c17")
	if _, err := d.submit(context.Background(), incsta.Edit{Op: incsta.OpResize, Gate: "U6", Strength: 4}); err != nil {
		t.Fatalf("edit after recovery: %v", err)
	}
}

// TestKillAfterEveryRecordRecovery is the recovery property test: for every
// prefix of the WAL — including torn tails of every partial record — the
// recovered engine must be bit-identical to a fresh engine replaying exactly
// the surviving records onto the snapshot.
func TestKillAfterEveryRecordRecovery(t *testing.T) {
	fs := faultfs.New()
	s, ts := newDurableServer(t, fs)
	loadC17(t, ts)
	d, _ := s.design("c17")

	// Drive the edits, recording the WAL byte offset after each record. An
	// accepted edit leaves exactly one record; a rejected edit leaves none.
	offsets := []int64{0}
	var accepted []EditRequest
	for i, ed := range c17Edits() {
		code, raw := postEdit(t, ts, "c17", ed)
		sz := d.log.Size()
		switch code {
		case http.StatusOK:
			accepted = append(accepted, ed)
			if sz <= offsets[len(offsets)-1] || d.log.LastSeq() != uint64(len(accepted)) {
				t.Fatalf("accepted edit %d left WAL size %d at seq %d, want one record more (seq %d)",
					i, sz, d.log.LastSeq(), len(accepted))
			}
			offsets = append(offsets, sz)
		case http.StatusBadRequest:
			if sz != offsets[len(offsets)-1] {
				t.Fatalf("rejected edit %d wrote %d WAL bytes", i, sz-offsets[len(offsets)-1])
			}
		default:
			t.Fatalf("edit %d: status %d: %s", i, code, raw)
		}
	}
	walBytes, err := fs.ReadFile("data/designs/c17/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := fs.ReadFile("data/designs/c17/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap designSnapshot
	if err := json.Unmarshal(snapBytes, &snap); err != nil {
		t.Fatal(err)
	}
	lib := libsynth.File()

	for cut := 0; cut < len(offsets); cut++ {
		// Torn tails: keep 0, 1, 8 and all-but-one bytes of the next record.
		keeps := []int64{0}
		if cut+1 < len(offsets) {
			recLen := offsets[cut+1] - offsets[cut]
			keeps = append(keeps, 1, 8, recLen-1)
		}
		for _, keep := range keeps {
			name := fmt.Sprintf("cut=%d keep=%d", cut, keep)
			crashFS := faultfs.New()
			writeDurable(t, crashFS, "data/designs/c17/snapshot.json", snapBytes)
			writeDurable(t, crashFS, "data/designs/c17/wal.log", walBytes[:offsets[cut]+keep])

			s2 := New(lib, WithStore(NewStore(crashFS, "data", StoreConfig{})))
			if err := s2.Recover(context.Background()); err != nil {
				t.Fatalf("%s: recover: %v", name, err)
			}
			got := slacksOf(t, s2, "c17")

			// The reference: a fresh engine from the snapshot replaying the
			// first `cut` accepted edits through the same entry point.
			ref, err := rebuildEngine(lib, &snap)
			if err != nil {
				t.Fatalf("%s: rebuild reference: %v", name, err)
			}
			for _, ed := range accepted[:cut] {
				if _, err := ref.ApplyEdit(engineEdit(ed)); err != nil {
					t.Fatalf("%s: reference replay: %v", name, err)
				}
			}
			want, err := ref.Snapshot().EndpointSlacks(500e-12, 3)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualSlacks(t, want, got)
			s2.Close()
		}
	}
}

// writeDurable puts content at path in a faultfs, fully durable.
func writeDurable(t *testing.T, fs *faultfs.FS, path string, data []byte) {
	t.Helper()
	dir := path[:strings.LastIndexByte(path, '/')]
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrainUnderLoad: SIGTERM-style shutdown in the middle of a
// concurrent edit burst and query stream must finish the accepted edits,
// persist a final snapshot, and leave zero un-replayed WAL bytes. A restart
// from the drained state reproduces the final timing exactly.
func TestGracefulDrainUnderLoad(t *testing.T) {
	fs := faultfs.New()
	s, ts := newDurableServer(t, fs)
	loadC17(t, ts)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Query stream.
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/designs/c17/slacks?period_ps=500")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	// Edit burst: alternate growing and shrinking G10 so every ack moves
	// state. 503 overloaded is an acceptable answer; silent loss is not.
	strengths := []int{1, 2, 4, 8}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			ed := EditRequest{Op: "resize", Gate: "G10", Strength: strengths[i%len(strengths)]}
			b, _ := json.Marshal(ed)
			resp, err := http.Post(ts.URL+"/v1/designs/c17/edits", "application/json", strings.NewReader(string(b)))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the burst overlap the drain
	d, _ := s.design("c17")
	ts.Close() // like http.Server.Shutdown: waits out in-flight requests
	close(stop)
	wg.Wait()
	s.Close() // drains queued edits, persists the final snapshot

	finalSlacks, err := d.eng.Snapshot().EndpointSlacks(500e-12, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Zero un-replayable WAL bytes: the drain folded everything into the
	// snapshot and truncated the log.
	walBytes, err := fs.ReadFile("data/designs/c17/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) != 0 {
		t.Fatalf("%d WAL bytes left after graceful drain", len(walBytes))
	}

	s2, _ := newDurableServer(t, fs.Image())
	mustEqualSlacks(t, finalSlacks, slacksOf(t, s2, "c17"))
}

// TestDeleteRemovesPersistedState: a deleted design must not resurrect on
// restart.
func TestDeleteRemovesPersistedState(t *testing.T) {
	fs := faultfs.New()
	_, ts := newDurableServer(t, fs)
	loadC17(t, ts)
	if code, raw := do(t, http.MethodDelete, ts.URL+"/v1/designs/c17", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, raw)
	}
	s2, _ := newDurableServer(t, fs.Image())
	if _, ok := s2.design("c17"); ok {
		t.Fatal("deleted design resurrected by recovery")
	}
}

// TestReadyzGatesUntilRecovered: with a store configured, every design route
// answers 503 not_ready until Recover completes; liveness stays green
// throughout.
func TestReadyzGatesUntilRecovered(t *testing.T) {
	fs := faultfs.New()
	st := NewStore(fs, "data", StoreConfig{})
	s := New(libsynth.File(), WithStore(st))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if code, _ := do(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz before recovery: %d", code)
	}
	var eb errorBody
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/readyz", nil, &eb); code != http.StatusServiceUnavailable || eb.Error.Code != codeNotReady {
		t.Fatalf("readyz before recovery: %d %+v", code, eb)
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/designs", nil, &eb); code != http.StatusServiceUnavailable || eb.Error.Code != codeNotReady {
		t.Fatalf("designs before recovery: %d %+v", code, eb)
	}

	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", code)
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/designs", nil, nil); code != http.StatusOK {
		t.Fatalf("designs after recovery: %d", code)
	}
}
