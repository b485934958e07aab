package main

import (
	"repro/internal/server"
)

// workload is one traffic mix against one design. Every workload runs the
// same phases (see run.go); the fields only change their sizes and mixes.
// Why each workload exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name    string
	circuit string
	nodes   int // 1 = single node; 3 = in-process cluster with one replica

	// Open-loop phase: ops/s at a fixed schedule, and the share of ops that
	// are edits (1 = edits only; the rest are queries).
	rate      float64
	editShare float64
	// satOpsPerSecond sizes the closed-loop saturation segments, in ops per
	// second of --seconds. A segment replays a fixed amount of work and is
	// timed, so the edit stream (and the oracle's replay) has a known length.
	satOpsPerSecond float64
	// readBack measures queries in an open-loop segment at readBackRate
	// against each recovered server, for mixes whose open loop has no
	// queries.
	readBack     bool
	readBackRate float64
	// crashRound is the round (from 0) after whose open-loop segment the
	// crash image is taken. Its WAL tail holds the warm-up and every edit up
	// to that segment, and recover_s sums their replay cost, which is
	// dominated by the few edits with the largest cones: the tail needs
	// many deals for the seed's draws to average out. With two deals
	// (read-heavy's first round) recover_s spread 0.35 over ten seeds,
	// while recoveries of one image mostly agreed within ±10%. The rounds
	// are chosen to hold 9 to 15 deals, each workload's recovery taking
	// 2–3 s.
	crashRound int
}

// Shares of --seconds given to each timed phase.
const (
	openShare     = 0.7
	satShare      = 0.3
	readBackShare = 0.4
)

// corners are the four operating corners every workload batches; paths k=50
// queries go to the slowest one.
var corners = []server.CornerSpec{
	{Name: "tt"},
	{Name: "ff", InputSlewPs: 15, CapScale: 0.9},
	{Name: "ss", InputSlewPs: 40, CapScale: 1.15},
	{Name: "slow", InputSlewPs: 60, CapScale: 1.3},
}

const slowCorner = "slow"

// The open-loop rates keep the server below saturation, so the open loop
// measures latency rather than queueing: each workload's open loop keeps
// the process's two CPUs under about half busy (the report prints the
// share), and the edit rates are about half the closed-loop edit capacity
// measured on the reference host (README.md).
var workloads = []*workload{
	{
		name: "read-heavy", circuit: "c7552", nodes: 1,
		rate: 200, editShare: 0.05, satOpsPerSecond: 600, crashRound: 4,
	},
	{
		name: "eco-durable", circuit: "c5315", nodes: 1,
		rate: 50, editShare: 1, satOpsPerSecond: 80,
		readBack: true, readBackRate: 150, crashRound: 1,
	},
	{
		// Half edits, half queries: the cluster layer has an edit side (the
		// per-edit ship) and a read side (proxy hops), and no measured mix
		// favours either.
		name: "cluster-mixed", circuit: "c3540", nodes: 3,
		rate: 80, editShare: 0.5, satOpsPerSecond: 150, crashRound: 3,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}
