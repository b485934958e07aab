package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/libsynth"
	"repro/internal/wal"
)

// bootDurableNode starts one store-backed cluster node on a pre-bound
// listener: real OS filesystem under dir, fsync on every append, promotion
// scans at test cadence. preServe runs after recovery but before the node
// serves HTTP — the only window where recovered state can be inspected
// before cluster traffic rewrites it.
func bootDurableNode(t *testing.T, self string, ln net.Listener, peers []string, dir string, preServe func(*Server)) *clusterNode {
	t.Helper()
	return bootDurableNodeReplicas(t, self, ln, peers, dir, 1, preServe)
}

// bootDurableNodeReplicas is bootDurableNode with an explicit ring replica
// count, for tests that need more than one caught-up candidate.
func bootDurableNodeReplicas(t *testing.T, self string, ln net.Listener, peers []string, dir string, replicas int, preServe func(*Server)) *clusterNode {
	t.Helper()
	cn, err := cluster.NewNode(cluster.Config{
		Self:              self,
		Peers:             peers,
		Replicas:          replicas,
		Proxy:             true,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		FailAfter:         2,
		BreakerCooldown:   250 * time.Millisecond,
		ReplicateInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cn.Start()
	st := NewStore(wal.OS(), dir, StoreConfig{Policy: wal.SyncAlways})
	s := New(libsynth.File(),
		WithCluster(cn), WithStore(st), WithPromotionInterval(50*time.Millisecond))
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("recover %s: %v", self, err)
	}
	if preServe != nil {
		preServe(s)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	node := &clusterNode{s: s, ts: ts, node: cn, url: self}
	t.Cleanup(func() { killNode(node) })
	return node
}

// killNode tears one node down. Safe to call twice — every Close involved
// is idempotent — so tests can kill mid-flight and Cleanup can sweep.
func killNode(cn *clusterNode) {
	cn.ts.Close()
	cn.s.Close()
	cn.node.Close()
}

// rebind re-listens on the exact address a killed node served, so a revived
// node keeps its cluster identity (the ring hashes peer URLs).
func rebind(t *testing.T, selfURL string) net.Listener {
	t.Helper()
	addr := selfURL[len("http://"):]
	var ln net.Listener
	waitUntil(t, "address "+addr+" to rebind", func() bool {
		var err error
		ln, err = net.Listen("tcp", addr)
		return err == nil
	})
	return ln
}

// doInternal issues a cluster-internal POST with the identifying headers a
// real peer would carry.
func doInternal(t *testing.T, base, path, kind string, body any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.InternalHeader, kind)
	req.Header.Set(cluster.PeerHeader, "http://revived-peer.invalid")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestClusterOwnerKillPromotion is the fenced-handoff acceptance test: a
// 3-node durable cluster loses its owner, the restarted replica promotes
// itself from its own durable state under a strictly greater epoch, serves
// bit-identical slacks, accepts new edits — and the revived old owner comes
// back fenced, its stale epoch rejected with 409 stale_epoch.
func TestClusterOwnerKillPromotion(t *testing.T) {
	const name = "c17-promote"
	const n = 3
	root := t.TempDir()

	lns := make([]net.Listener, n)
	urls := make([]string, n)
	dirs := make([]string, n)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = l
		urls[i] = "http://" + l.Addr().String()
		dirs[i] = filepath.Join(root, fmt.Sprintf("node%d", i))
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		nodes[i] = bootDurableNode(t, urls[i], lns[i], urls, dirs[i], nil)
	}
	waitUntil(t, "all members to see each other alive", func() bool {
		for _, a := range nodes {
			for _, u := range urls {
				if !a.node.AliveMember(u) {
					return false
				}
			}
		}
		return true
	})
	owner, replica, neither := byRole(t, nodes, name)
	dirOf := map[*clusterNode]string{}
	for i, cn := range nodes {
		dirOf[cn] = dirs[i]
	}

	// Load through the bystander (proxied to the ring owner) and apply a
	// recorded edit stream.
	var sum DesignSummary
	if code, raw := do(t, http.MethodPut, neither.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, &sum); code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", code, raw)
	}
	gates := clusterGates(t, neither.url, name)
	edits := []EditRequest{
		{Op: "resize", Gate: gates[0].Name, Strength: 8},
		{Op: "resize", Gate: gates[1].Name, Strength: 4},
		{Op: "resize", Gate: gates[2].Name, Strength: 8},
	}
	for _, ed := range edits {
		var er EditResponse
		if code, raw := do(t, http.MethodPost, neither.url+"/v1/designs/"+name+"/edits", ed, &er); code != http.StatusOK {
			t.Fatalf("edit = %d: %s", code, raw)
		}
	}
	waitUntil(t, "replica to ack the full edit stream", func() bool {
		d, ok := owner.s.design(name)
		if !ok {
			t.Fatal("owner lost the design")
		}
		rep := replica.s.replica(name)
		if rep == nil {
			return false
		}
		_, seq, _ := rep.view()
		return seq == d.seq.Load()
	})

	slacksPath := "/v1/designs/" + name + "/slacks?period_ps=2000&level=3"
	code, preSlacks := do(t, http.MethodGet, owner.url+slacksPath, nil, nil)
	if code != http.StatusOK {
		t.Fatalf("pre-kill slacks = %d", code)
	}

	// Kill the owner for good and bounce the replica, so the promotion that
	// follows can only come from the replica's durable on-disk state.
	killNode(owner)
	killNode(replica)
	replica2 := bootDurableNode(t, replica.url, rebind(t, replica.url), urls, dirOf[replica], nil)

	var promoted *design
	waitUntil(t, "restarted replica to promote itself", func() bool {
		d, ok := replica2.s.design(name)
		if !ok || d.fenced.Load() || d.epoch.Load() < 2 {
			return false
		}
		promoted = d
		return true
	})
	if got := promoted.seq.Load(); got != uint64(len(edits)) {
		t.Fatalf("promoted at seq %d, want the full acked stream %d", got, len(edits))
	}

	// The promoted copy serves byte-identical slacks...
	code, postSlacks := do(t, http.MethodGet, replica2.url+slacksPath, nil, nil)
	if code != http.StatusOK {
		t.Fatalf("post-promotion slacks = %d", code)
	}
	if postSlacks != preSlacks {
		t.Fatalf("promoted slacks diverge from the dead owner's:\npre:  %s\npost: %s", preSlacks, postSlacks)
	}
	// ...identical to a single-node replay of the same acked edit stream.
	single := New(libsynth.File())
	ts1 := httptest.NewServer(single.Handler())
	t.Cleanup(func() { ts1.Close(); single.Close() })
	if code, raw := do(t, http.MethodPut, ts1.URL+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("single-node PUT = %d: %s", code, raw)
	}
	for _, ed := range edits {
		if code, raw := do(t, http.MethodPost, ts1.URL+"/v1/designs/"+name+"/edits", ed, nil); code != http.StatusOK {
			t.Fatalf("single-node edit = %d: %s", code, raw)
		}
	}
	if code, replaySlacks := do(t, http.MethodGet, ts1.URL+slacksPath, nil, nil); code != http.StatusOK {
		t.Fatalf("single-node slacks = %d", code)
	} else if replaySlacks != preSlacks {
		t.Fatalf("promoted slacks diverge from a single-node replay:\nreplay:   %s\npromoted: %s", replaySlacks, postSlacks)
	}

	// Writes resume, and the bystander routes them to the new owner (it
	// learns the lease from the winner's announcement, not from shipments).
	waitUntil(t, "bystander to route edits to the promoted owner", func() bool {
		var er EditResponse
		code, _ := do(t, http.MethodPost, neither.url+"/v1/designs/"+name+"/edits",
			EditRequest{Op: "resize", Gate: gates[3].Name, Strength: 4}, &er)
		return code == http.StatusOK && er.Version == uint64(len(edits))+2
	})

	// A revived old owner recovers its design fenced at the superseded
	// epoch: it must re-win an election before serving again.
	fencedAtBoot, epochAtBoot := false, uint64(0)
	owner2 := bootDurableNode(t, owner.url, rebind(t, owner.url), urls, dirOf[owner], func(s *Server) {
		if d, ok := s.design(name); ok {
			fencedAtBoot = d.fenced.Load()
			epochAtBoot = d.epoch.Load()
		}
	})
	if !fencedAtBoot || epochAtBoot != 1 {
		t.Fatalf("revived owner recovered fenced=%v epoch=%d, want fenced at epoch 1", fencedAtBoot, epochAtBoot)
	}

	// Old-epoch traffic against the new owner is fenced with the stable
	// stale_epoch code — the revived owner cannot overwrite newer state.
	staleCode, staleRaw := doInternal(t, replica2.url, "/v1/internal/edits", "edits", editsRequest{
		Design: name, Seq: promoted.seq.Load() + 1, Epoch: 1,
		From:    owner.url,
		Payload: json.RawMessage(`{"op":"resize","gate":"` + gates[0].Name + `","strength":4}`),
	})
	if staleCode != http.StatusConflict {
		t.Fatalf("old-epoch internal edit = %d, want 409: %s", staleCode, staleRaw)
	}
	var stale staleEpochBody
	if err := json.Unmarshal([]byte(staleRaw), &stale); err != nil {
		t.Fatal(err)
	}
	if stale.Error.Code != codeStaleEpoch || stale.Epoch < 2 {
		t.Fatalf("stale rejection = %+v, want code %q with the winning epoch", stale, codeStaleEpoch)
	}

	// The revived node rejoins: demoted to a replica or handed the design
	// back by the ring, it eventually serves current reads again.
	waitUntil(t, "revived owner to rejoin and serve current reads", func() bool {
		code, raw := do(t, http.MethodGet, owner2.url+slacksPath, nil, nil)
		curCode, cur := do(t, http.MethodGet, neither.url+slacksPath, nil, nil)
		return code == http.StatusOK && curCode == http.StatusOK && raw == cur
	})
}

// TestClusterMembershipAdminAPI exercises the resource-shaped membership
// API: list with quorum math, join with broadcast to every member, leave,
// and the self-removal guard.
func TestClusterMembershipAdminAPI(t *testing.T) {
	nodes := newTestCluster(t, 3, true)
	type membersResp struct {
		Self        string `json:"self"`
		Quorum      int    `json:"quorum"`
		HasMajority bool   `json:"has_majority"`
		Members     []struct {
			URL   string `json:"url"`
			Alive bool   `json:"alive"`
		} `json:"members"`
	}
	var mr membersResp
	if code, raw := do(t, http.MethodGet, nodes[0].url+"/v1/cluster/members", nil, &mr); code != http.StatusOK {
		t.Fatalf("GET members = %d: %s", code, raw)
	}
	if mr.Self != nodes[0].url || mr.Quorum != 2 || !mr.HasMajority || len(mr.Members) != 3 {
		t.Fatalf("members = %+v, want self %s, quorum 2, majority, 3 members", mr, nodes[0].url)
	}

	// Joining a (dead) fourth member raises the quorum everywhere.
	const joiner = "http://127.0.0.1:1"
	if code, raw := do(t, http.MethodPost, nodes[0].url+"/v1/cluster/members",
		map[string]string{"peer": joiner}, nil); code != http.StatusOK {
		t.Fatalf("POST members = %d: %s", code, raw)
	}
	waitUntil(t, "join broadcast to reach every member", func() bool {
		for _, cn := range nodes {
			if !cn.node.IsMember(joiner) {
				return false
			}
		}
		return true
	})
	if code, _ := do(t, http.MethodGet, nodes[1].url+"/v1/cluster/members", nil, &mr); code != http.StatusOK || mr.Quorum != 3 {
		t.Fatalf("after join: quorum = %d (status %d), want 3", mr.Quorum, code)
	}

	// Leave through a different node; the removal broadcasts too.
	if code, raw := do(t, http.MethodDelete,
		nodes[1].url+"/v1/cluster/members/"+url.PathEscape(joiner), nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE member = %d: %s", code, raw)
	}
	waitUntil(t, "leave broadcast to reach every member", func() bool {
		for _, cn := range nodes {
			if cn.node.IsMember(joiner) {
				return false
			}
		}
		return true
	})

	// A node cannot remove itself.
	var eb errorBody
	if code, _ := do(t, http.MethodDelete,
		nodes[2].url+"/v1/cluster/members/"+url.PathEscape(nodes[2].url), nil, &eb); code != http.StatusBadRequest {
		t.Fatalf("DELETE self = %d, want 400", code)
	}
}

// TestClusterDesignPlacement: the per-design cluster resource reports
// lease and ring placement even for a design that is not loaded anywhere.
func TestClusterDesignPlacement(t *testing.T) {
	nodes := newTestCluster(t, 3, true)
	var ds struct {
		Design string `json:"design"`
		Ring   struct {
			Owner string `json:"owner"`
		} `json:"ring"`
	}
	if code, raw := do(t, http.MethodGet, nodes[0].url+"/v1/cluster/designs/unloaded", nil, &ds); code != http.StatusOK {
		t.Fatalf("GET cluster design = %d: %s", code, raw)
	}
	if ds.Design != "unloaded" || ds.Ring.Owner == "" {
		t.Fatalf("cluster design = %+v, want a ring owner for %q", ds, "unloaded")
	}
}

// TestClusterPromotionDuel kills the owner of a design replicated to BOTH
// surviving nodes. Two equally caught-up candidates then race the same
// election; without randomized promotion scans they claim in lockstep —
// each promising its own epoch and denying the other's — and livelock with
// ever-rising epochs. Exactly one must win, the loser must adopt the
// winner's lease, and writes must resume.
func TestClusterPromotionDuel(t *testing.T) {
	const name = "c17-duel"
	const n = 3
	root := t.TempDir()

	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		nodes[i] = bootDurableNodeReplicas(t, urls[i], lns[i], urls,
			filepath.Join(root, fmt.Sprintf("node%d", i)), 2, nil)
	}
	waitUntil(t, "all members to see each other alive", func() bool {
		for _, a := range nodes {
			for _, u := range urls {
				if !a.node.AliveMember(u) {
					return false
				}
			}
		}
		return true
	})

	var owner *clusterNode
	others := make([]*clusterNode, 0, 2)
	for _, cn := range nodes {
		if o, _, _ := cn.node.Role(name); o == cn.url {
			owner = cn
		} else {
			others = append(others, cn)
		}
	}
	if owner == nil || len(others) != 2 {
		t.Fatalf("no unique ring owner for %s", name)
	}

	if code, raw := do(t, http.MethodPut, owner.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", code, raw)
	}
	gates := clusterGates(t, owner.url, name)
	var er EditResponse
	if code, raw := do(t, http.MethodPost, owner.url+"/v1/designs/"+name+"/edits",
		EditRequest{Op: "resize", Gate: gates[0].Name, Strength: 8}, &er); code != http.StatusOK {
		t.Fatalf("edit = %d: %s", code, raw)
	}
	waitUntil(t, "both replicas to ack the edit", func() bool {
		d, ok := owner.s.design(name)
		if !ok {
			t.Fatal("owner lost the design")
		}
		for _, cn := range others {
			rep := cn.s.replica(name)
			if rep == nil {
				return false
			}
			_, seq, _ := rep.view()
			if seq != d.seq.Load() {
				return false
			}
		}
		return true
	})

	killNode(owner)

	// The duel converges to exactly one unfenced owner with the loser adopting
	// the winner's lease. Both candidates briefly holding adjacent epochs is a
	// legal transient (the grantor's basis stays replica-shaped until its own
	// promotion completes, so a second claim at epoch+1 can win before the
	// announce→fence exchange settles it) — so the poll recomputes the
	// winner/loser split every round instead of latching the first promotion.
	var winner, loser *clusterNode
	waitUntil(t, "the duel to converge on one owner", func() bool {
		winner, loser = nil, nil
		for _, cn := range others {
			if d, ok := cn.s.design(name); ok && !d.fenced.Load() {
				if winner != nil {
					return false // transient dual promotion: keep polling
				}
				winner = cn
			} else {
				loser = cn
			}
		}
		if winner == nil {
			return false
		}
		li, ok := loser.s.leases.Current(name)
		return ok && li.Owner == winner.url
	})

	// Writes resume on the winner, routed from the loser.
	waitUntil(t, "writes to resume via the loser", func() bool {
		var er EditResponse
		code, _ := do(t, http.MethodPost, loser.url+"/v1/designs/"+name+"/edits",
			EditRequest{Op: "resize", Gate: gates[1].Name, Strength: 4}, &er)
		return code == http.StatusOK
	})
}

// TestClusterPromotionAsymmetricDuel pits a caught-up candidate against one
// that is a sequence behind but whose promise watermark is far ahead (the
// state a full-cluster restart leaves behind when both survivors hold durable
// replica copies of different ages). The lagging candidate refuses every
// claim below its watermark while self-promising higher each scan, so a
// claimant that only ever proposes its own promised+1 never converges: the
// election must still complete — won by the CAUGHT-UP candidate, above the
// lagger's watermark — because refusals teach the claimant the refuser's
// promised epoch and a basis-refused candidate stands down.
func TestClusterPromotionAsymmetricDuel(t *testing.T) {
	const name = "c17-asym"
	const n = 3
	root := t.TempDir()

	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		nodes[i] = bootDurableNodeReplicas(t, urls[i], lns[i], urls,
			filepath.Join(root, fmt.Sprintf("node%d", i)), 2, nil)
	}
	waitUntil(t, "all members to see each other alive", func() bool {
		for _, a := range nodes {
			for _, u := range urls {
				if !a.node.AliveMember(u) {
					return false
				}
			}
		}
		return true
	})

	var owner *clusterNode
	others := make([]*clusterNode, 0, 2)
	for _, cn := range nodes {
		if o, _, _ := cn.node.Role(name); o == cn.url {
			owner = cn
		} else {
			others = append(others, cn)
		}
	}
	if owner == nil || len(others) != 2 {
		t.Fatalf("no unique ring owner for %s", name)
	}

	if code, raw := do(t, http.MethodPut, owner.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", code, raw)
	}
	gates := clusterGates(t, owner.url, name)
	var er EditResponse
	if code, raw := do(t, http.MethodPost, owner.url+"/v1/designs/"+name+"/edits",
		EditRequest{Op: "resize", Gate: gates[0].Name, Strength: 8}, &er); code != http.StatusOK {
		t.Fatalf("edit = %d: %s", code, raw)
	}
	waitUntil(t, "both replicas to ack the edit", func() bool {
		d, ok := owner.s.design(name)
		if !ok {
			t.Fatal("owner lost the design")
		}
		for _, cn := range others {
			rep := cn.s.replica(name)
			if rep == nil {
				return false
			}
			_, seq, _ := rep.view()
			if seq != d.seq.Load() {
				return false
			}
		}
		return true
	})

	killNode(owner)

	// After the kill (so the owner cannot re-ship and heal it), rewind one
	// candidate a sequence and ratchet its promise watermark far above
	// anything the caught-up candidate will propose on its own.
	caught, lagger := others[0], others[1]
	rep := lagger.s.replica(name)
	rep.mu.Lock()
	rep.seq--
	rep.mu.Unlock()
	lagger.s.leases.Promise(name, 100)

	waitUntil(t, "the caught-up candidate to win above the watermark", func() bool {
		d, ok := caught.s.design(name)
		return ok && !d.fenced.Load() && d.epoch.Load() > 100
	})
	if d, ok := lagger.s.design(name); ok && !d.fenced.Load() {
		t.Fatalf("the lagging candidate promoted %s despite a stale copy", name)
	}
	waitUntil(t, "lagger to adopt the winner's lease", func() bool {
		li, ok := lagger.s.leases.Current(name)
		return ok && li.Owner == caught.url && li.Epoch > 100
	})
	waitUntil(t, "writes to resume via the lagger", func() bool {
		var er EditResponse
		code, _ := do(t, http.MethodPost, lagger.url+"/v1/designs/"+name+"/edits",
			EditRequest{Op: "resize", Gate: gates[1].Name, Strength: 8}, &er)
		return code == http.StatusOK
	})
}
