package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/libsynth"
)

// clusterNode is one in-process timingd node of a test cluster.
type clusterNode struct {
	s    *Server
	ts   *httptest.Server
	node *cluster.Node
	url  string
}

// newTestCluster boots n in-memory nodes that know about each other, each
// serving on a real TCP port (the ring hashes peer URLs, so the listeners
// come first). Heartbeats and replication run at test cadence.
func newTestCluster(t *testing.T, n int, proxy bool) []*clusterNode {
	t.Helper()
	return newTestClusterWith(t, n, proxy, nil)
}

// newTestClusterWith is newTestCluster plus per-node extra server options
// (optFor may be nil; it receives the node index).
func newTestClusterWith(t *testing.T, n int, proxy bool, optFor func(i int) []Option) []*clusterNode {
	t.Helper()
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
		cn, err := cluster.NewNode(cluster.Config{
			Self:              urls[i],
			Peers:             urls,
			Replicas:          1,
			Proxy:             proxy,
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
		opts := []Option{WithCluster(cn)}
		if optFor != nil {
			opts = append(opts, optFor(i)...)
		}
		s := New(libsynth.File(), opts...)
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		nodes[i] = &clusterNode{s: s, ts: ts, node: cn, url: urls[i]}
	}
	t.Cleanup(func() {
		for _, cn := range nodes {
			cn.ts.Close()
			cn.s.Close()
			cn.node.Close()
		}
	})
	return nodes
}

// byRole picks the owner node, a replica node, and a node that is neither,
// for one design name.
func byRole(t *testing.T, nodes []*clusterNode, name string) (owner, replica, neither *clusterNode) {
	t.Helper()
	for _, cn := range nodes {
		switch _, isOwner, isReplica := cn.node.Role(name); {
		case isOwner:
			owner = cn
		case isReplica:
			replica = cn
		default:
			neither = cn
		}
	}
	if owner == nil || replica == nil || neither == nil {
		t.Fatalf("3-node cluster must give one node per role for %q", name)
	}
	return owner, replica, neither
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// clusterGates fetches a loaded design's gate list through any node.
func clusterGates(t *testing.T, base, name string) []GateInfo {
	t.Helper()
	var resp struct {
		Gates []GateInfo `json:"gates"`
	}
	code, raw := do(t, http.MethodGet, base+"/v1/designs/"+name+"/gates", nil, &resp)
	if code != http.StatusOK || len(resp.Gates) == 0 {
		t.Fatalf("gates: status %d: %s", code, raw)
	}
	return resp.Gates
}

// noRedirect issues a request without following redirects.
func noRedirect(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	var req *http.Request
	var err error
	if body != nil {
		b, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, url, strings.NewReader(string(b)))
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestClusterRedirectsEditsToOwner(t *testing.T) {
	nodes := newTestCluster(t, 3, false)
	const name = "c17-redirect"
	owner, _, neither := byRole(t, nodes, name)

	// A PUT at a non-owner answers 307 with the owner in Location.
	resp := noRedirect(t, http.MethodPut, neither.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench})
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("PUT at non-owner = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, owner.url) {
		t.Fatalf("Location = %q, want owner prefix %q", loc, owner.url)
	}

	// A client following the redirect lands the design on the owner (do()
	// uses http.DefaultClient, which replays the 307 with the body).
	var sum DesignSummary
	if code, raw := do(t, http.MethodPut, neither.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, &sum); code != http.StatusCreated {
		t.Fatalf("redirected PUT = %d: %s", code, raw)
	}
	if _, ok := owner.s.design(name); !ok {
		t.Fatal("design not loaded on the owner")
	}
	// Reads at the owner work directly.
	if code, raw := do(t, http.MethodGet, owner.url+"/v1/designs/"+name, nil, nil); code != http.StatusOK {
		t.Fatalf("GET at owner = %d: %s", code, raw)
	}
}

func TestClusterProxyReplicationAndBitIdentity(t *testing.T) {
	nodes := newTestCluster(t, 3, true)
	const name = "c17-proxy"
	owner, replica, neither := byRole(t, nodes, name)

	// Load and edit through a node that owns nothing: the proxy path.
	var sum DesignSummary
	if code, raw := do(t, http.MethodPut, neither.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, &sum); code != http.StatusCreated {
		t.Fatalf("proxied PUT = %d: %s", code, raw)
	}
	gates := clusterGates(t, neither.url, name)
	for _, g := range gates[:3] {
		var er EditResponse
		if code, raw := do(t, http.MethodPost, neither.url+"/v1/designs/"+name+"/edits",
			EditRequest{Op: "resize", Gate: g.Name, Strength: 8}, &er); code != http.StatusOK {
			t.Fatalf("proxied edit = %d: %s", code, raw)
		}
	}
	ownerVersion := func() uint64 {
		d, ok := owner.s.design(name)
		if !ok {
			t.Fatal("owner lost the design")
		}
		return d.eng.Snapshot().Version()
	}
	want := ownerVersion()

	// The replica converges to the owner's version, and its slacks are
	// byte-identical to the owner's for the same sequence (Go's JSON map
	// encoding is key-sorted, so identical payloads are identical bytes).
	slacksURL := func(base string) string {
		return base + "/v1/designs/" + name + "/slacks?period_ps=2000&level=3"
	}
	var fromOwner, fromReplica string
	waitUntil(t, "replica to converge to the owner's sequence", func() bool {
		rep := replica.s.replica(name)
		if rep == nil {
			return false
		}
		d, ok := owner.s.design(name)
		if !ok {
			t.Fatal("owner lost the design")
		}
		if _, seq, _ := rep.view(); seq != d.seq() {
			return false
		}
		var code int
		code, fromOwner = do(t, http.MethodGet, slacksURL(owner.url), nil, nil)
		if code != http.StatusOK {
			return false
		}
		code, fromReplica = do(t, http.MethodGet, slacksURL(replica.url), nil, nil)
		return code == http.StatusOK
	})
	if fromOwner != fromReplica {
		t.Fatalf("replica slacks diverge from owner at the same seq:\nowner:   %s\nreplica: %s", fromOwner, fromReplica)
	}
	if !strings.Contains(fromReplica, fmt.Sprintf(`"version":%d`, want)) {
		t.Fatalf("replica payload does not report the shipped sequence %d: %s", want, fromReplica)
	}

	// Batch reads served by the replica pin the same shipped sequence.
	var br BatchResponse
	if code, raw := do(t, http.MethodPost, replica.url+"/v1/designs/"+name+"/batch",
		BatchRequest{Queries: []BatchQuery{{Kind: "summary"}, {Kind: "slacks", PeriodPs: 2000}}}, &br); code != http.StatusOK {
		t.Fatalf("replica batch = %d: %s", code, raw)
	} else if br.Version != want {
		t.Fatalf("replica batch version = %d, want %d", br.Version, want)
	}
}

func TestClusterLoopPrevention(t *testing.T) {
	nodes := newTestCluster(t, 3, true)
	const name = "c17-loop"
	_, _, neither := byRole(t, nodes, name)

	// A request already carrying the forward header must not hop again.
	req, err := http.NewRequest(http.MethodGet, neither.url+"/v1/designs/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Timingd-Forward", "http://elsewhere:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest || eb.Error.Code != codeWrongNode {
		t.Fatalf("double-forward = %d/%s, want 421/%s", resp.StatusCode, eb.Error.Code, codeWrongNode)
	}
}

// TestClusterSurvivesReplicaKill is the acceptance scenario: 3 nodes, a
// replicated design, one replica killed hard — reads and writes keep
// serving from the survivors, and the ring heals around the dead peer.
func TestClusterSurvivesReplicaKill(t *testing.T) {
	nodes := newTestCluster(t, 3, true)
	const name = "c17-kill"
	owner, replica, neither := byRole(t, nodes, name)

	var sum DesignSummary
	if code, raw := do(t, http.MethodPut, owner.url+"/v1/designs/"+name, LoadRequest{Bench: c17Bench}, &sum); code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", code, raw)
	}
	waitUntil(t, "initial replication", func() bool {
		return replica.s.replica(name) != nil
	})

	// Kill the replica hard: close its listener and all live connections.
	replica.ts.CloseClientConnections()
	replica.ts.Close()

	// Reads and writes through the survivors never stop serving. Before
	// ejection the read path is owner-local (non-owner forwards to the
	// owner, never to a replica), so there is no unavailability window.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if code, raw := do(t, http.MethodGet, neither.url+"/v1/designs/"+name+"/slacks?period_ps=2000", nil, nil); code != http.StatusOK {
			t.Fatalf("read via survivor = %d after replica kill: %s", code, raw)
		}
		time.Sleep(25 * time.Millisecond)
	}
	gates := clusterGates(t, neither.url, name)
	var er EditResponse
	if code, raw := do(t, http.MethodPost, neither.url+"/v1/designs/"+name+"/edits",
		EditRequest{Op: "resize", Gate: gates[0].Name, Strength: 4}, &er); code != http.StatusOK {
		t.Fatalf("edit via survivor = %d after replica kill: %s", code, raw)
	}

	// The owner's heartbeats eject the dead peer; the surviving third node
	// becomes the design's replica and receives the state.
	waitUntil(t, "dead peer ejected from owner's ring", func() bool {
		for _, p := range owner.node.Ring().Peers() {
			if p == replica.url {
				return false
			}
		}
		return true
	})
	waitUntil(t, "survivor promoted to replica and caught up", func() bool {
		_, _, isReplica := neither.node.Role(name)
		if !isReplica {
			return false
		}
		rep := neither.s.replica(name)
		if rep == nil {
			return false
		}
		d, ok := owner.s.design(name)
		if !ok {
			return false
		}
		_, seq, _ := rep.view()
		return seq == d.seq()
	})
}
