package cluster

import "sync"

// Ownership of a design is a lease: (owner, epoch) where the epoch is a
// monotonically increasing fencing token. A node becomes owner by claiming a
// strictly greater epoch and collecting promises from a majority of the
// cluster membership (Paxos-promise style: a node that has promised epoch E
// refuses every claim at or below E, and refuses replication traffic below
// the highest epoch it has adopted *or promised*). An old owner that was
// partitioned away keeps its stale epoch; every replicate ship or edit it
// sends is rejected with
// stale_epoch by any node that adopted the greater one — that rejection is
// what fences it.
//
// LeaseTable is one node's view of the per-design leases: the adopted
// (owner, epoch) plus the highest epoch it has promised to a claim. It is
// a pure state machine — the claim RPCs live in the server layer.

// LeaseInfo is one design's lease as this node knows it. Promised is the
// highest epoch this node has promised to a claimant (promises outlive the
// claim: once promised, epochs at or below are never granted again).
type LeaseInfo struct {
	Owner    string `json:"owner,omitempty"`
	Epoch    uint64 `json:"epoch"`
	Promised uint64 `json:"promised,omitempty"`
}

// LeaseTable holds the per-design lease state. Safe for concurrent use.
// The optional change hook (set once, before concurrent use) fires after
// every state change so the server can persist promises durably — a
// restarted node must not re-grant an epoch it promised before the crash.
type LeaseTable struct {
	mu       sync.Mutex
	leases   map[string]LeaseInfo
	onChange func()
}

// NewLeaseTable builds an empty table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{leases: map[string]LeaseInfo{}}
}

// OnChange registers the persistence hook, called (outside the table lock)
// after every state change.
func (t *LeaseTable) OnChange(fn func()) { t.onChange = fn }

func (t *LeaseTable) changed() {
	if t.onChange != nil {
		t.onChange()
	}
}

// Current returns the design's lease view (zero LeaseInfo if never seen).
func (t *LeaseTable) Current(design string) (LeaseInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	li, ok := t.leases[design]
	return li, ok
}

// Promise grants a claim at epoch iff it is strictly greater than both the
// adopted epoch and every epoch already promised. A granted promise is
// remembered: this node will never grant epoch or anything below it again,
// whether or not the claim wins its quorum.
func (t *LeaseTable) Promise(design string, epoch uint64) bool {
	t.mu.Lock()
	li := t.leases[design]
	if epoch <= li.Epoch || epoch <= li.Promised {
		t.mu.Unlock()
		return false
	}
	li.Promised = epoch
	t.leases[design] = li
	t.mu.Unlock()
	t.changed()
	return true
}

// Adopt installs (owner, epoch) as the design's accepted lease. It succeeds
// for a strictly greater epoch, or for the current epoch when the owner
// matches (idempotent re-adopt); anything lower is stale and refused. An
// idempotent re-adopt that changes nothing skips the change hook, so a
// replica acking every shipped edit does not re-persist its lease table.
func (t *LeaseTable) Adopt(design, owner string, epoch uint64) bool {
	t.mu.Lock()
	old, known := t.leases[design]
	li := old
	switch {
	case epoch > li.Epoch:
	case epoch == li.Epoch && (li.Owner == "" || li.Owner == owner):
	default:
		t.mu.Unlock()
		return false
	}
	li.Owner, li.Epoch = owner, epoch
	if li.Promised < epoch {
		li.Promised = epoch
	}
	t.leases[design] = li
	t.mu.Unlock()
	if !known || li != old {
		t.changed()
	}
	return true
}

// CheckEpoch accepts traffic at or above this node's fencing epoch: the
// maximum of the adopted epoch and every epoch promised to a claimant.
// Fencing at the promise (not just the adopted lease) is standard promise
// semantics, and it is load-bearing: a node that has promised E+1 to a new
// claimant but still accepted an ex-owner's edits at E would let that owner
// acknowledge a write which the E+1 winner's snapshot ship then erases.
// It returns the current lease view either way, so a fenced sender can
// learn who owns the design now.
func (t *LeaseTable) CheckEpoch(design string, epoch uint64) (LeaseInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	li := t.leases[design]
	fence := li.Epoch
	if li.Promised > fence {
		fence = li.Promised
	}
	return li, epoch >= fence
}

// NextEpoch is the lowest epoch a fresh claim for design could win here:
// one past everything adopted or promised.
func (t *LeaseTable) NextEpoch(design string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	li := t.leases[design]
	e := li.Epoch
	if li.Promised > e {
		e = li.Promised
	}
	return e + 1
}

// Forget drops a design's lease (after a DELETE tombstone).
func (t *LeaseTable) Forget(design string) {
	t.mu.Lock()
	_, ok := t.leases[design]
	delete(t.leases, design)
	t.mu.Unlock()
	if ok {
		t.changed()
	}
}

// Snapshot copies the table for persistence.
func (t *LeaseTable) Snapshot() map[string]LeaseInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]LeaseInfo, len(t.leases))
	for d, li := range t.leases {
		out[d] = li
	}
	return out
}

// Load replaces the table wholesale (recovery; before concurrent use).
func (t *LeaseTable) Load(m map[string]LeaseInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.leases = make(map[string]LeaseInfo, len(m))
	for d, li := range m {
		t.leases[d] = li
	}
}
