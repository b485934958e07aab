package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor can take the CPUs away for seconds at
// a time ("steal"), which doubles every latency in that window. Each
// measured step — the set-ups together, one round, the recoveries together
// — is therefore timed together with the steal over it, and a step that
// lost more than maxSteal of the CPUs is run again. A step is at least
// about two seconds long, so /proc/stat's 10 ms ticks resolve it; a single
// 0.15 s set-up would be flagged by two or three ticks. Spells of steal
// last minutes, so before a repeat the guard waits, in windows of
// calmWindow, until a window loses at most maxSteal. Repeats and waiting
// share repeatBudget per pass, which keeps a noisy run within its time
// limit. A group whose kept steps are not a strict majority of clean ones
// makes the pass invalid: its median may be a stolen step's. maxSteal sits
// above the 1–6% the reference host loses to steal even when idle. Where
// /proc/stat is missing nothing is repeated.
const (
	maxSteal     = 0.10
	calmWindow   = 500 * time.Millisecond
	repeatBudget = 25 * time.Second
)

// clockTicks is USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealMeter measures the CPU time stolen over an interval.
type stealMeter struct {
	t0     time.Time
	steal0 uint64
	ok     bool
}

func startSteal() stealMeter {
	s, ok := readSteal()
	return stealMeter{t0: time.Now(), steal0: s, ok: ok}
}

// share is the stolen fraction of all CPUs since the meter started, less
// one tick of resolution.
func (m stealMeter) share() float64 {
	s, ok := readSteal()
	if !m.ok || !ok {
		return 0
	}
	capacity := time.Since(m.t0).Seconds() * float64(senders) * clockTicks
	return (float64(s-m.steal0) - 1) / capacity
}

// readSteal returns the steal column of the aggregate cpu line of
// /proc/stat.
func readSteal() (uint64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(fields[8], 10, 64)
	return v, err == nil
}

// stealGuard is a pass's repeat budget and its count, per group, of the
// steps it had to keep although they lost more than maxSteal.
type stealGuard struct {
	repeats int
	spent   time.Duration // on repeated steps and waiting for calm
	stolen  map[string]int
}

func newStealGuard() *stealGuard { return &stealGuard{stolen: map[string]int{}} }

// measure runs one step of a group and repeats it while the steal over it
// exceeds maxSteal and the budget lasts; the last attempt's result is kept.
// A rejected attempt's side effects (ops sent, edits applied) stand.
func measure[T any](g *stealGuard, group string, step func(attempt int) (T, error)) (T, error) {
	for attempt := 0; ; attempt++ {
		m := startSteal()
		v, err := step(attempt)
		if attempt > 0 {
			g.spent += time.Since(m.t0)
		}
		if err != nil || m.share() <= maxSteal {
			return v, err
		}
		if g.spent >= repeatBudget {
			g.stolen[group]++
			return v, nil
		}
		g.repeats++
		g.waitCalm()
	}
}

// waitCalm sleeps until a window loses at most maxSteal or the budget is
// spent.
func (g *stealGuard) waitCalm() {
	for g.spent < repeatBudget {
		m := startSteal()
		time.Sleep(calmWindow)
		g.spent += calmWindow
		if m.share() <= maxSteal {
			return
		}
	}
}

// check reports a group of n kept steps whose clean steps are not a strict
// majority: its median may be a stolen step's.
func (g *stealGuard) check(group string, n int) error {
	if k := g.stolen[group]; 2*k >= n {
		return fmt.Errorf("%d of %d %s steps lost more than %.0f%% of the CPUs to steal after %d repeats (%.1f s with waiting)",
			k, n, group, 100*maxSteal, g.repeats, g.spent.Seconds())
	}
	return nil
}
