package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/server"
	"repro/internal/timinglib"
)

// A run sets the servers up at least minSetups times and until setupBudget
// has passed; setup_s is the median. A single node loads in about 0.15 s,
// so it gets a dozen set-ups; a cluster waits about 1.2 s for the replica
// and varies least.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

// rounds is how many times a run alternates its open-loop and saturation
// segments. The steal guard judges each round on its own, so a spell of
// steal costs one round's repeat, not the whole run's.
const rounds = 5

// A run recovers the crash image on at least minRecoveries fresh servers
// and until recoveryBudget has passed; recover_s is the median. Recoveries
// of one image mostly agree within ±10%; what varies is the image, so the
// time goes into a long WAL tail rather than many recoveries.
const (
	minRecoveries  = 3
	recoveryBudget = 4 * time.Second
)

// maxLatenessMS is the generator lateness p99 above which a pass measured
// the generator rather than the server.
const maxLatenessMS = 10

// pass is one complete replay of a workload: set-up, warm-up, open loop,
// crash image, saturation, verification, recovery, read-back and oracle.
type pass struct {
	wl      *workload
	lib     *timinglib.File
	seed    uint64
	seconds int
	root    string
	rec     *recorder // nil = untraced
	gen     *generator
	mark    time.Time
}

// phase logs how long the work since the previous mark took.
func (p *pass) phase(name string) {
	now := time.Now()
	if !p.mark.IsZero() {
		fmt.Printf("phase %-12s %6.2f s\n", name, now.Sub(p.mark).Seconds())
	}
	p.mark = now
}

// passResult is what a pass measured: the end-to-end metrics plus the raw
// material the traced pass turns into per-layer metrics.
type passResult struct {
	e2e       map[string]float64
	tails     map[string]float64 // latency p90s and p99s, reported with the per-layer metrics
	attempted int
	failed    int
	problems  []string // oracle mismatches; empty = correct
	invalid   []string // why the pass measured something else than timingd

	nl    *netlist.Netlist
	trees map[string]*rctree.Tree

	open, readBack []sample
	acked          []ackedEdit
	openEdits      int // edits acked in the open-loop window
	openWall       time.Duration
	recs           []routeRec // open-loop and read-back windows
	fsBytes        int64
	fsyncs         int64
	walSyncs       []time.Duration
	gcCycles       float64
	allocBytes     float64
	replay         *replayStats
	rejected       map[string]int
	repeated       int // measured steps run again because of CPU steal
}

func (r *passResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (p *pass) design() string { return p.wl.circuit }

func (p *pass) run() (*passResult, error) {
	wl := p.wl
	res := &passResult{e2e: map[string]float64{}, tails: map[string]float64{}}
	p.mark = time.Now()
	c := newClient() // the benchmark's own requests: oracles and checks
	defer c.close()
	nl, trees, err := designInputs(wl.circuit)
	if err != nil {
		return nil, err
	}
	res.nl, res.trees = nl, trees
	rng := rand.New(rand.NewPCG(p.seed, 1))
	gen, err := newEditGen(p.lib, nl, trees, rng)
	if err != nil {
		return nil, err
	}
	res.rejected = gen.rejected
	ops := newStream(p.design(), wl.nodes, wl.editShare, gen, rng)
	reads := newStream(p.design(), 1, 0, nil, rand.New(rand.NewPCG(p.seed, 2)))

	// Every segment holds whole edit deals (see editGen), so every run sends
	// the same mix of cone sizes in each segment and in the crash image.
	secs := float64(p.seconds)
	warmN := opsForDeals(1, wl.editShare)
	openN := opsForDeals(wl.rate*wl.editShare*openShare*secs/rounds, wl.editShare)
	satN := opsForDeals(wl.satOpsPerSecond*wl.editShare*satShare*secs/rounds, wl.editShare)
	readN := int(wl.readBackRate * readBackShare * secs / minRecoveries)
	warmOps, err := ops.take(warmN)
	if err != nil {
		return nil, err
	}
	p.phase("generate")

	heap := startHeapSampler()
	var insts []*instance
	var owner, replica int
	guard := newStealGuard()
	setups, err := measure(guard, "set-up", func(attempt int) ([]float64, error) {
		var setups []float64
		for i, t0 := 0, time.Now(); i < minSetups || time.Since(t0) < setupBudget; i++ {
			closeAll(insts)
			insts = nil
			runtime.GC()
			secs, in, o, r, err := p.setup(fmt.Sprintf("setup%d-%d", attempt, i))
			if err != nil {
				return nil, err
			}
			insts, owner, replica = in, o, r
			setups = append(setups, secs)
		}
		return setups, nil
	})
	if err != nil {
		heap.stop()
		closeAll(insts)
		return nil, err
	}
	res.e2e["setup_s"] = median(setups)
	bases := make([]string, len(insts))
	for i, in := range insts {
		bases[i] = in.url
	}
	p.phase("setup")

	warm, _, err := p.gen.run(bases, warmOps, 0)
	if err != nil {
		heap.stop()
		closeAll(insts)
		return nil, err
	}
	sent := [][]sample{warm}
	p.phase("warm-up")

	// Rounds alternate an open-loop segment and a saturation segment. After
	// the open-loop segment of round wl.crashRound every acked write is
	// fsynced and none is in flight, so a copy of the owner's data dir is the
	// crash image a kill -9 would leave behind.
	type round struct {
		open     window
		satEdits int
		satWall  time.Duration
	}
	var kept []round
	var preCrash []slackAnswer
	crashDir := filepath.Join(p.root, "crash")
	for r := 0; r < rounds; r++ {
		rd, err := measure(guard, "round", func(int) (round, error) {
			openOps, err := ops.take(openN)
			if err != nil {
				return round{}, err
			}
			satOps, err := ops.take(satN)
			if err != nil {
				return round{}, err
			}
			w, err := p.openWindow(bases, insts, openOps, wl.rate)
			if err != nil {
				return round{}, err
			}
			sent = append(sent, w.samples)
			if r == wl.crashRound && preCrash == nil {
				if preCrash, err = servedSlacks(c, bases[owner], p.design()); err != nil {
					return round{}, err
				}
				if err := copyTree(insts[owner].dir, crashDir); err != nil {
					return round{}, fmt.Errorf("crash image: %w", err)
				}
			}
			sat, wall, err := p.gen.run(bases, satOps, 0)
			if err != nil {
				return round{}, err
			}
			sent = append(sent, sat)
			return round{open: w, satEdits: countAcked(sat, kindEdit), satWall: wall}, nil
		})
		if err != nil {
			heap.stop()
			closeAll(insts)
			return nil, err
		}
		kept = append(kept, rd)
	}
	p.phase("rounds")

	final, err := servedSlacks(c, bases[owner], p.design())
	if err == nil && replica >= 0 {
		err = p.checkReplica(c, bases[replica], final, res)
	}
	res.e2e["heap_peak_mb"] = heap.stop() / (1 << 20)
	closeAll(insts)
	if err != nil {
		return nil, fmt.Errorf("final slacks: %w", err)
	}
	p.phase("verify")

	// Each recovery starts a fresh server on a fresh copy of the crash image
	// and, where the workload reads back, serves an open-loop query segment.
	type recovery struct {
		secs float64
		read window
	}
	recoverOnce := func(dir string) (recovery, error) {
		if err := copyTree(crashDir, dir); err != nil {
			return recovery{}, err
		}
		runtime.GC()
		t0 := time.Now()
		insts, err := boot(p.lib, []string{dir}, p.rec)
		if err != nil {
			return recovery{}, fmt.Errorf("recover crash image: %w", err)
		}
		defer closeAll(insts)
		rv := recovery{secs: time.Since(t0).Seconds()}
		if got, err := servedSlacks(c, insts[0].url, p.design()); err != nil {
			res.problem("recovered server: %v", err)
		} else {
			for ci, cs := range corners {
				if err := compareSlacks(got[ci].slacks, preCrash[ci].slacks); err != nil {
					res.problem("recovered slacks (corner %s) differ from the pre-crash slacks: %v", cs.Name, err)
				}
			}
		}
		if wl.readBack {
			readOps, err := reads.take(readN)
			if err != nil {
				return recovery{}, err
			}
			if rv.read, err = p.openWindow([]string{insts[0].url}, insts, readOps, wl.readBackRate); err != nil {
				return recovery{}, err
			}
			sent = append(sent, rv.read.samples)
		}
		return rv, nil
	}
	recovered, err := measure(guard, "recovery", func(attempt int) ([]recovery, error) {
		var out []recovery
		var took time.Duration
		for i := 0; i < minRecoveries || took < recoveryBudget; i++ {
			rv, err := recoverOnce(filepath.Join(p.root, fmt.Sprintf("recover%d-%d", attempt, i)))
			if err != nil {
				return nil, err
			}
			out = append(out, rv)
			took += time.Duration(rv.secs * float64(time.Second))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	p.phase("recovery")

	res.acked = ackedEdits(sent...)
	if res.replay, err = replay(p.lib, nl, trees, res.acked); err != nil {
		res.problem("oracle: %v", err)
	} else {
		p.checkOracle(final, res)
	}
	p.phase("oracle")

	for _, phase := range sent {
		for i := range phase {
			res.attempted++
			if !phase[i].ok() {
				res.failed++
			}
		}
	}
	// Latency quantiles pool every timed segment of the run (the rounds, or
	// the read-back segments on eco-durable): a round holds only 40 to 120
	// edits, and over the same seeds the median of per-round medians spread
	// wider between runs than the pooled median. The query p50 is taken per
	// kind and the kinds' medians are averaged geometrically: the five kinds
	// differ in cost by more than ten times, so the median of the mixed
	// latencies falls in a gap between kinds and jumps with the order the
	// kinds happen to arrive in. The capacity pools the saturation segments
	// too: each replays one or two edit deals, whose cost varies with the
	// cones the seed drew.
	var capacity, recovers, busy, roundEditP50, roundQueryP50 []float64
	satEdits, satWall := 0, time.Duration(0)
	for _, rd := range kept {
		res.keepOpen(rd.open)
		e, _ := latencies(rd.open.samples)
		roundEditP50 = append(roundEditP50, quantile(e, 0.5))
		capacity = append(capacity, float64(rd.satEdits)/rd.satWall.Seconds())
		satEdits += rd.satEdits
		satWall += rd.satWall
		busy = append(busy, rd.open.busy)
		if !wl.readBack {
			roundQueryP50 = append(roundQueryP50, kindQuantile(rd.open.samples, 0.5))
		}
	}
	for _, rv := range recovered {
		recovers = append(recovers, rv.secs)
		if wl.readBack {
			res.readBack = append(res.readBack, rv.read.samples...)
			res.recs = append(res.recs, rv.read.recs...)
			roundQueryP50 = append(roundQueryP50, kindQuantile(rv.read.samples, 0.5))
		}
	}
	queried := res.open
	if wl.readBack {
		queried = res.readBack
	}
	allEdits, _ := latencies(res.open)
	_, allQueries := latencies(queried)
	res.openEdits = countAcked(res.open, kindEdit)
	res.e2e["edit_p50_ms"] = quantile(allEdits, 0.5)
	res.e2e["query_p50_ms"] = kindQuantile(queried, 0.5)
	res.e2e["edit_capacity_per_s"] = float64(satEdits) / satWall.Seconds()
	res.e2e["recover_s"] = median(recovers)
	for _, q := range []float64{0.9, 0.99} {
		res.tails[fmt.Sprintf("edit_p%.0f_ms", 100*q)] = quantile(allEdits, q)
		res.tails[fmt.Sprintf("query_p%.0f_ms", 100*q)] = quantile(allQueries, q)
	}
	res.repeated = guard.repeats
	fmt.Printf("rounds: edit p50 %.2f; pooled p50 %.2f p90 %.2f p99 %.2f of %d\n", roundEditP50,
		res.e2e["edit_p50_ms"], res.tails["edit_p90_ms"], res.tails["edit_p99_ms"], len(allEdits))
	fmt.Printf("rounds: query p50 by kind %.2f; pooled %.2f, mixed p90 %.2f p99 %.2f of %d\n", roundQueryP50,
		res.e2e["query_p50_ms"], res.tails["query_p90_ms"], res.tails["query_p99_ms"], len(allQueries))
	fmt.Printf("rounds: capacity %.1f, open-loop CPU busy %.2f, setups %.3f, recoveries %.3f, steps repeated for steal %d (%.1f s with waiting)\n",
		capacity, busy, setups, recovers, res.repeated, guard.spent.Seconds())

	for _, g := range []struct {
		name string
		n    int
	}{{"set-up", 1}, {"round", rounds}, {"recovery", 1}} {
		if err := guard.check(g.name, g.n); err != nil {
			res.invalid = append(res.invalid, err.Error())
		}
	}
	if late := latenessP99(append(append([]sample(nil), res.open...), res.readBack...)); late > maxLatenessMS {
		res.invalid = append(res.invalid, fmt.Sprintf(
			"the load generator fell behind its schedule (lateness p99 %.3f ms > %d ms)", late, maxLatenessMS))
	}
	return res, nil
}

// window is what one timed open-loop segment saw: its samples and, when
// traced, the handler records and the filesystem and runtime counters.
type window struct {
	samples   []sample
	wall      time.Duration
	recs      []routeRec
	fsBytes   int64
	fsyncs    int64
	walSyncs  []time.Duration
	gc, alloc float64
	busy      float64 // share of the CPUs the process used
}

func (p *pass) openWindow(bases []string, insts []*instance, ops []*op, rate float64) (window, error) {
	var w window
	if p.rec != nil {
		for _, in := range insts {
			in.fs.reset()
		}
		p.rec.start()
	}
	before, cpu0 := readRuntime(), cpuTime()
	var err error
	w.samples, w.wall, err = p.gen.run(bases, ops, rate)
	after, cpu1 := readRuntime(), cpuTime()
	w.gc, w.alloc = after.gc-before.gc, after.alloc-before.alloc
	w.busy = (cpu1 - cpu0).Seconds() / w.wall.Seconds() / float64(runtime.NumCPU())
	if p.rec != nil {
		w.recs = p.rec.stop()
		for _, in := range insts {
			b, n, ws := in.fs.totals()
			w.fsBytes += b
			w.fsyncs += n
			w.walSyncs = append(w.walSyncs, ws...)
		}
	}
	return w, err
}

// keepOpen adds a kept open-loop window to the per-layer material.
func (r *passResult) keepOpen(w window) {
	r.open = append(r.open, w.samples...)
	r.openWall += w.wall
	r.recs = append(r.recs, w.recs...)
	r.fsBytes += w.fsBytes
	r.fsyncs += w.fsyncs
	r.walSyncs = append(r.walSyncs, w.walSyncs...)
	r.gcCycles += w.gc
	r.allocBytes += w.alloc
}

// opsForDeals sizes a segment: the whole number of edit deals nearest to
// the given edit count (at least one), as ops at the given edit share.
func opsForDeals(edits, share float64) int {
	deals := max(1, int(edits/editDeal+0.5))
	return int(float64(deals*editDeal)/share + 0.5)
}

// countAcked counts the acknowledged ops of one kind.
func countAcked(ss []sample, kind string) int {
	n := 0
	for i := range ss {
		if ss[i].op.Kind == kind && ss[i].ok() {
			n++
		}
	}
	return n
}

// setup builds the servers from nothing and loads the design: server
// construction, recovery of the empty store, place, extract, compile and
// the first full propagate — and, on a cluster, the first snapshot ship to
// the replica. It returns the wall time and the owner and replica indexes
// (replica -1 on a single node).
func (p *pass) setup(label string) (float64, []*instance, int, int, error) {
	dirs := make([]string, p.wl.nodes)
	for j := range dirs {
		dirs[j] = filepath.Join(p.root, label, fmt.Sprintf("node%d", j))
	}
	c := newClient()
	defer c.close()
	t0 := time.Now()
	insts, err := boot(p.lib, dirs, p.rec)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	owner, replica := 0, -1
	if p.wl.nodes > 1 {
		ownerURL, reps := insts[0].node.Placement(p.design())
		for j, in := range insts {
			switch {
			case in.url == ownerURL:
				owner = j
			case len(reps) > 0 && in.url == reps[0]:
				replica = j
			}
		}
		if replica < 0 {
			closeAll(insts)
			return 0, nil, 0, 0, fmt.Errorf("ring placed no replica for %s", p.design())
		}
	}
	load := server.LoadRequest{Circuit: p.wl.circuit, Corners: corners}
	if err := c.put(insts[owner].url, "/v1/designs/"+p.design(), load, http.StatusCreated); err != nil {
		closeAll(insts)
		return 0, nil, 0, 0, err
	}
	if replica >= 0 {
		if err := waitReplica(c, insts[replica].url, p.design()); err != nil {
			closeAll(insts)
			return 0, nil, 0, 0, err
		}
	}
	return time.Since(t0).Seconds(), insts, owner, replica, nil
}

// waitReplica polls a node until it holds a replica copy of the design.
func waitReplica(c *client, base, design string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := c.get(base, "/v1/cluster/designs/"+design)
		if err != nil {
			return err
		}
		var st struct {
			Local struct {
				Role string `json:"role"`
			} `json:"local"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
		if st.Local.Role == "replica" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("replica of %s not shipped within 30s", design)
}

// checkReplica requires the replica's answer to equal the owner's at the
// same sequence number.
func (p *pass) checkReplica(c *client, base string, owner []slackAnswer, res *passResult) error {
	var got []slackAnswer
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		if got, err = servedSlacks(c, base, p.design()); err != nil {
			return err
		}
		if got[0].version >= owner[0].version || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for ci, cs := range corners {
		if got[ci].version != owner[ci].version {
			res.problem("replica at seq %d, owner at %d (corner %s)", got[ci].version, owner[ci].version, cs.Name)
			continue
		}
		if err := compareSlacks(got[ci].slacks, owner[ci].slacks); err != nil {
			res.problem("replica slacks (corner %s) differ from the owner's at the same seq: %v", cs.Name, err)
		}
	}
	return nil
}

// checkOracle compares the owner's final answer with the oracle replay.
func (p *pass) checkOracle(final []slackAnswer, res *passResult) {
	if want := uint64(len(res.acked)) + 1; final[0].version != want {
		res.problem("served version %d after %d acked edits (want %d)", final[0].version, len(res.acked), want)
	}
	for ci, cs := range corners {
		want, err := oracleSlacks(res.replay.snap, ci)
		if err != nil {
			res.problem("oracle slacks: %v", err)
			return
		}
		if err := compareSlacks(final[ci].slacks, want); err != nil {
			res.problem("served slacks (corner %s) differ from the oracle replay: %v", cs.Name, err)
		}
	}
}

// latencies splits an open-loop phase's acked samples into edit and query
// latencies in ms.
func latencies(ss []sample) (edits, queries []float64) {
	for i := range ss {
		s := &ss[i]
		if !s.ok() {
			continue
		}
		if s.op.Kind == kindEdit {
			edits = append(edits, ms(s.Latency))
		} else {
			queries = append(queries, ms(s.Latency))
		}
	}
	return edits, queries
}

type runtimeCounters struct{ gc, alloc float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeCounters{gc: float64(s[0].Value.Uint64()), alloc: float64(s[1].Value.Uint64())}
}

// heapSampler tracks the peak live heap (bytes marked live by the last GC)
// while the servers run, above the benchmark's own live heap before the
// first set-up (the edit generator's private engine, the design inputs).
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	base  uint64
	peak  uint64 // written by the sampler goroutine, read after done
}

func startHeapSampler() *heapSampler {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(s)
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{}), base: s[0].Value.Uint64()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak above the base in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) - float64(h.base)
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
