package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// ghostClaim injects a lease claim from a claimant that will never finish
// its takeover: high basis (so any copy grants) at the given epoch. The
// target node's fencing epoch rises to epoch without any owner adopting it.
func ghostClaim(t *testing.T, target *clusterNode, name string, epoch uint64) {
	t.Helper()
	code, raw := doInternal(t, target.url, "/v1/internal/lease/claim", "lease-claim",
		leaseClaimRequest{
			Design: name, Epoch: epoch, From: "http://ghost.invalid:1",
			BasisEpoch: 99, BasisSeq: 99,
		})
	if code != http.StatusOK || !strings.Contains(raw, `"granted":true`) {
		t.Fatalf("ghost claim at %d = %d: %s", epoch, code, raw)
	}
}

// TestClusterPromiseFencesEditsAndRecovers is the acked-write-loss
// regression at the HTTP level: once a replica has promised a higher epoch
// to a claimant, the old owner's edit stream is refused with stale_epoch —
// the client's write fails visibly instead of being acknowledged and later
// erased by the claimant's snapshot. And because the claimant never
// completes its takeover, the fenced owner must recover on its own: it is
// not demoted (no live higher-epoch owner exists), so its re-claim path
// wins an epoch above the ghost's promise and writes resume.
func TestClusterPromiseFencesEditsAndRecovers(t *testing.T) {
	const name = "c17-promise-fence"
	nodes := newTestClusterWith(t, 3, true, func(int) []Option {
		return []Option{WithPromotionInterval(50 * time.Millisecond)}
	})
	owner, replica, neither := byRole(t, nodes, name)

	if code, raw := do(t, http.MethodPut, neither.url+"/v1/designs/"+name,
		LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", code, raw)
	}
	gates := clusterGates(t, neither.url, name)
	if code, raw := do(t, http.MethodPost, neither.url+"/v1/designs/"+name+"/edits",
		EditRequest{Op: "resize", Gate: gates[0].Name, Strength: 8}, nil); code != http.StatusOK {
		t.Fatalf("edit = %d: %s", code, raw)
	}
	waitUntil(t, "replica to ack the edit", func() bool {
		d, ok := owner.s.design(name)
		if !ok {
			return false
		}
		rep := replica.s.replica(name)
		if rep == nil {
			return false
		}
		_, seq, _ := rep.view()
		return seq == d.seq()
	})

	ghostClaim(t, replica, name, 7)
	code, raw := do(t, http.MethodPost, owner.url+"/v1/designs/"+name+"/edits",
		EditRequest{Op: "resize", Gate: gates[1].Name, Strength: 4}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(raw, codeStaleEpoch) {
		t.Fatalf("edit under a promised higher epoch = %d (%s), want 503 stale_epoch", code, raw)
	}

	waitUntil(t, "fenced owner to re-claim above the ghost's promise", func() bool {
		d, ok := owner.s.design(name)
		return ok && !d.fenced.Load() && d.epoch.Load() > 7
	})
	waitUntil(t, "writes to resume on the re-promoted owner", func() bool {
		code, _ := do(t, http.MethodPost, neither.url+"/v1/designs/"+name+"/edits",
			EditRequest{Op: "resize", Gate: gates[2].Name, Strength: 8}, nil)
		return code == http.StatusOK
	})
}

// TestClusterDeletedNameReloadsOverStaleReplica covers the missed-tombstone
// debris path: a replica whose fencing epoch was raised past the owner's
// delete tombstone keeps its copy of a deleted design, and a later PUT of
// the same name — whose fresh-load claim that replica refuses as "more
// caught-up" — must tombstone the provably stale copy and win, not 503
// forever.
func TestClusterDeletedNameReloadsOverStaleReplica(t *testing.T) {
	const name = "c17-stale-replica"
	nodes := newTestClusterWith(t, 3, true, func(int) []Option {
		return []Option{WithPromotionInterval(50 * time.Millisecond)}
	})
	owner, replica, neither := byRole(t, nodes, name)

	if code, raw := do(t, http.MethodPut, neither.url+"/v1/designs/"+name,
		LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", code, raw)
	}
	waitUntil(t, "replica to hold a shipped copy", func() bool {
		return replica.s.replica(name) != nil
	})

	// The ghost's promise raises the replica's fencing epoch above anything
	// the deleting owner will tombstone at, so the DELETE broadcast cannot
	// reach this copy.
	ghostClaim(t, replica, name, 4)
	if code, raw := do(t, http.MethodDelete, owner.url+"/v1/designs/"+name, nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", code, raw)
	}
	time.Sleep(150 * time.Millisecond) // let the tombstone broadcast land and be refused
	if replica.s.replica(name) == nil {
		t.Fatal("test premise broken: the stale replica accepted the low-epoch tombstone")
	}

	// Reloading the name sweeps the debris inside the claim retry loop.
	if code, raw := do(t, http.MethodPut, neither.url+"/v1/designs/"+name,
		LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("reload over stale replica = %d: %s", code, raw)
	}
	d, ok := owner.s.design(name)
	if !ok {
		t.Fatal("reloaded design missing on the ring owner")
	}
	if epoch := d.epoch.Load(); epoch <= 4 {
		t.Fatalf("reloaded design won epoch %d, want above the ghost's promise 4", epoch)
	}
	waitUntil(t, "stale replica to be rebased onto the new incarnation", func() bool {
		rep := replica.s.replica(name)
		if rep == nil {
			return false
		}
		_, _, epoch := rep.view()
		return epoch == d.epoch.Load()
	})
}
