// This file generated the legacy-v0 fixture. The Go tool ignores testdata
// directories, so it is never compiled here. It records the command that
// wrote the data dir, against the server package of commit f218e76 (the
// last one whose owner WAL numbered every record, rejections included):
//
//	git archive f218e76 | tar -x -C /tmp/legacy
//	cp internal/server/testdata/legacy-v0/gen_legacy_test.go /tmp/legacy/internal/server/
//	cd /tmp/legacy && LEGACY_FIXTURE_OUT=$PWD/out go test -run TestWriteLegacyFixture ./internal/server/
//	cp -r /tmp/legacy/out/. internal/server/testdata/legacy-v0/
//
// The data dir is one node of a two-node durable cluster, copied while the
// node runs (a crash image: every acknowledged edit is fsynced, nothing was
// drained): designs/c17 is an owner whose snapshot was checkpointed after
// four records and whose WAL tail holds a rejected record, replicas/<peer>
// is the replica of a design the other node owns, and leases.json holds
// both leases. manifest.json lists the node URLs and every edit with the
// status it was answered.
package server

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

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

func TestWriteLegacyFixture(t *testing.T) {
	out := os.Getenv("LEGACY_FIXTURE_OUT")
	if out == "" {
		t.Skip("LEGACY_FIXTURE_OUT not set")
	}
	root := t.TempDir()
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = l, "http://"+l.Addr().String()
	}
	nodes := make([]*clusterNode, 2)
	for i := range nodes {
		nodes[i] = bootDurableNode(t, urls[i], lns[i], urls, filepath.Join(root, fmt.Sprint(i)), nil)
	}
	waitUntil(t, "members alive", func() bool {
		return nodes[0].node.AliveMember(urls[1]) && nodes[1].node.AliveMember(urls[0])
	})
	// The fixture node is the ring owner of "c17"; the replica design is the
	// first candidate name the other node owns.
	self, other := nodes[0], nodes[1]
	if _, own, _ := other.node.Role("c17"); own {
		self, other = other, self
	}
	peerName := ""
	for i := 0; peerName == ""; i++ {
		if _, own, _ := other.node.Role(fmt.Sprintf("peer%d", i)); own {
			peerName = fmt.Sprintf("peer%d", i)
		}
	}
	m := legacyManifest{Self: self.url, Peer: other.url, Owner: "c17", Rep: peerName,
		Edits: map[string][]legacyEdit{}}
	post := func(cn *clusterNode, name string, eds ...EditRequest) {
		for _, ed := range eds {
			code, raw := do(t, http.MethodPost, cn.url+"/v1/designs/"+name+"/edits", ed, nil)
			if code != http.StatusOK && code != http.StatusBadRequest {
				t.Fatalf("%s edit %+v: %d %s", name, ed, code, raw)
			}
			m.Edits[name] = append(m.Edits[name], legacyEdit{Edit: ed, Status: code})
		}
	}
	for _, l := range []struct {
		cn   *clusterNode
		name string
	}{{self, "c17"}, {other, peerName}} {
		if code, raw := do(t, http.MethodPut, l.cn.url+"/v1/designs/"+l.name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
			t.Fatalf("load %s: %d %s", l.name, code, raw)
		}
	}

	post(self, "c17",
		EditRequest{Op: "resize", Gate: "U1", Strength: 4},
		EditRequest{Op: "set_input_slew", Net: "G1", SlewPs: 15},
		EditRequest{Op: "resize", Gate: "NOPE", Strength: 2}, // rejected, before the checkpoint
		EditRequest{Op: "swap", Gate: "U2", Cell: "NAND2x4"},
	)
	d, _ := self.s.design("c17")
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	post(self, "c17",
		EditRequest{Op: "resize", Gate: "U5", Strength: 8},
		EditRequest{Op: "resize", Gate: "NOPE", Strength: 4}, // rejected, in the WAL tail
		EditRequest{Op: "set_input_slew", Net: "G2", SlewPs: 20},
		EditRequest{Op: "resize", Gate: "U3", Strength: 2},
	)
	post(other, peerName,
		EditRequest{Op: "resize", Gate: "U4", Strength: 8},
		EditRequest{Op: "swap", Gate: "U1", Cell: "INVx1"}, // rejected: pin mismatch
		EditRequest{Op: "set_input_slew", Net: "G3", SlewPs: 12},
		EditRequest{Op: "resize", Gate: "U6", Strength: 4},
	)
	od, _ := other.s.design(peerName)
	waitUntil(t, "replica caught up", func() bool {
		rep := self.s.replica(peerName)
		if rep == nil {
			return false
		}
		_, seq, _ := rep.view()
		return seq == od.seq.Load()
	})

	src := filepath.Join(root, map[bool]string{true: "0", false: "1"}[self == nodes[0]])
	if err := filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dst := filepath.Join(out, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	if err := os.WriteFile(filepath.Join(out, "manifest.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
