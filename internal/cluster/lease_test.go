package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestLeaseTableStateMachine(t *testing.T) {
	lt := NewLeaseTable()
	if _, ok := lt.Current("d"); ok {
		t.Fatal("fresh table must not know d")
	}
	if lt.NextEpoch("d") != 1 {
		t.Fatalf("NextEpoch on empty = %d, want 1", lt.NextEpoch("d"))
	}
	if !lt.Promise("d", 1) {
		t.Fatal("first promise at 1 must succeed")
	}
	if lt.Promise("d", 1) {
		t.Fatal("re-promising the same epoch must fail")
	}
	if !lt.Adopt("d", "http://a:1", 1) {
		t.Fatal("adopting the promised epoch must succeed")
	}
	if !lt.Adopt("d", "http://a:1", 1) {
		t.Fatal("idempotent re-adopt by the same owner must succeed")
	}
	if lt.Adopt("d", "http://b:1", 1) {
		t.Fatal("a different owner must not adopt the same epoch")
	}
	if li, ok := lt.CheckEpoch("d", 1); !ok || li.Owner != "http://a:1" {
		t.Fatalf("CheckEpoch(1) = %+v/%v, want ok for owner a", li, ok)
	}
	if li, ok := lt.CheckEpoch("d", 0); ok || li.Epoch != 1 {
		t.Fatalf("CheckEpoch(0) = %+v/%v, want fenced with current lease", li, ok)
	}
	if !lt.Adopt("d", "http://b:1", 3) {
		t.Fatal("higher-epoch adopt must succeed")
	}
	if lt.Promise("d", 3) || lt.Promise("d", 2) {
		t.Fatal("promises at or below the adopted epoch must fail")
	}
	if lt.NextEpoch("d") != 4 {
		t.Fatalf("NextEpoch = %d, want 4", lt.NextEpoch("d"))
	}
	// Promised beyond adopted raises the claim floor.
	if !lt.Promise("d", 9) {
		t.Fatal("promise at 9 must succeed")
	}
	if lt.NextEpoch("d") != 10 {
		t.Fatalf("NextEpoch after promise(9) = %d, want 10", lt.NextEpoch("d"))
	}

	// Snapshot/Load round-trip, then Forget.
	snap := lt.Snapshot()
	lt2 := NewLeaseTable()
	lt2.Load(snap)
	if li, ok := lt2.Current("d"); !ok || li.Owner != "http://b:1" || li.Epoch != 3 || li.Promised != 9 {
		t.Fatalf("round-tripped lease = %+v/%v", li, ok)
	}
	lt2.Forget("d")
	if _, ok := lt2.Current("d"); ok {
		t.Fatal("Forget must drop the lease")
	}
}

// TestCheckEpochFencesAtPromised is the acked-write-loss regression: once a
// node has promised epoch E+k to a claimant, replication traffic below E+k
// must be refused even though the adopted lease still names the old owner at
// E — accepting it would let that owner acknowledge an edit which the E+k
// winner's snapshot ship then erases cluster-wide.
func TestCheckEpochFencesAtPromised(t *testing.T) {
	lt := NewLeaseTable()
	if !lt.Adopt("d", "http://old:1", 2) {
		t.Fatal("adopt at 2 must succeed")
	}
	if _, ok := lt.CheckEpoch("d", 2); !ok {
		t.Fatal("traffic at the adopted epoch must pass before any promise")
	}
	if !lt.Promise("d", 5) {
		t.Fatal("promise at 5 must succeed")
	}
	if li, ok := lt.CheckEpoch("d", 2); ok {
		t.Fatalf("traffic at the adopted epoch must be fenced by the promise; lease %+v", li)
	}
	if _, ok := lt.CheckEpoch("d", 4); ok {
		t.Fatal("traffic below the promised epoch must be fenced")
	}
	if li, ok := lt.CheckEpoch("d", 5); !ok || li.Owner != "http://old:1" {
		t.Fatalf("the promised claimant's own traffic must pass; lease %+v ok %v", li, ok)
	}
}

func TestLeaseTableOnChange(t *testing.T) {
	lt := NewLeaseTable()
	calls := 0
	lt.OnChange(func() { calls++ })
	lt.Promise("d", 1) // fires
	lt.Promise("d", 1) // no-op, must not fire
	lt.Adopt("d", "a", 1)
	lt.Adopt("d", "b", 1) // refused, must not fire
	lt.Forget("d")
	lt.Forget("d") // already gone, must not fire
	if calls != 3 {
		t.Fatalf("onChange calls = %d, want 3", calls)
	}
}

// TestLeaseAdoptUnchangedSkipsOnChange: a replica re-adopts the same lease
// on every replicated edit; only a real change may reach the persistence
// hook (each call rewrites and fsyncs the lease file).
func TestLeaseAdoptUnchangedSkipsOnChange(t *testing.T) {
	lt := NewLeaseTable()
	calls := 0
	lt.OnChange(func() { calls++ })
	lt.Adopt("d", "", 0) // first sight of d: fires even at the zero lease
	for i := 0; i < 5; i++ {
		lt.Adopt("d", "", 0)
	}
	if calls != 1 {
		t.Fatalf("after repeated zero adopts: onChange calls = %d, want 1", calls)
	}
	lt.Adopt("d", "a", 2) // fires
	for i := 0; i < 100; i++ {
		if !lt.Adopt("d", "a", 2) {
			t.Fatal("idempotent re-adopt refused")
		}
	}
	if calls != 2 {
		t.Fatalf("after 100 identical adopts: onChange calls = %d, want 2", calls)
	}
	lt.Promise("d", 3)    // fires
	lt.Adopt("d", "a", 2) // accepted, but the lease and promise stay as they are
	if calls != 3 {
		t.Fatalf("after promise + same adopt: onChange calls = %d, want 3", calls)
	}
	lt.Adopt("d", "b", 3) // fires: new owner at the promised epoch
	if calls != 4 {
		t.Fatalf("after a real adopt: onChange calls = %d, want 4", calls)
	}
}

// TestLeaseFencingProperty drives random claim schedules over a simulated
// cluster of lease tables and asserts the safety property the whole design
// rests on: no two candidates ever win the same (design, epoch), no matter
// how the network partitions — because winning requires promises from a
// majority and each table promises an epoch at most once.
func TestLeaseFencingProperty(t *testing.T) {
	const nodes = 5
	quorum := nodes/2 + 1
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables := make([]*LeaseTable, nodes)
		for i := range tables {
			tables[i] = NewLeaseTable()
		}
		winners := map[string]int{} // "design/epoch" → winning node
		for step := 0; step < 400; step++ {
			design := fmt.Sprintf("d%d", rng.Intn(3))
			cand := rng.Intn(nodes)
			// The candidate proposes the next epoch by its own view —
			// sometimes a deliberately stale one to model a partitioned
			// straggler retrying an old claim.
			epoch := tables[cand].NextEpoch(design)
			if rng.Intn(4) == 0 && epoch > 1 {
				epoch -= uint64(rng.Intn(int(epoch)))
			}
			// Random partition: each node is independently reachable.
			grants := 0
			for i, lt := range tables {
				if i != cand && rng.Intn(3) == 0 {
					continue // unreachable this round
				}
				if lt.Promise(design, epoch) {
					grants++
				}
			}
			if grants < quorum {
				continue // claim failed; promises stay burned
			}
			key := fmt.Sprintf("%s/%d", design, epoch)
			if prev, dup := winners[key]; dup {
				t.Fatalf("seed %d step %d: (%s) won by node %d and node %d",
					seed, step, key, prev, cand)
			}
			winners[key] = cand
			// The winner adopts on itself and on a random subset of the
			// granters (models partial broadcast of the adoption).
			self := fmt.Sprintf("http://n%d", cand)
			if !tables[cand].Adopt(design, self, epoch) {
				t.Fatalf("seed %d step %d: winner could not adopt its own claim", seed, step)
			}
			for i, lt := range tables {
				if i != cand && rng.Intn(2) == 0 {
					lt.Adopt(design, self, epoch)
				}
			}
		}
		if len(winners) == 0 {
			t.Fatalf("seed %d: no claim ever won — test is vacuous", seed)
		}
	}
}
