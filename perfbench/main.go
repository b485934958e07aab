// Command perfbench is the end-to-end benchmark of timingd. It starts
// timingd in process (server.New + Handler() over loopback HTTP, durable
// store under fsync always), replays a seeded workload, checks every served
// answer it can against an independent replay, and prints each metric by
// name with its unit. The last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload eco-durable --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 replays the workload
// twice, untraced and traced, and prints the per-layer metrics of the
// traced pass plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/libsynth"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phases")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from an extra traced pass")
	loadgen := flag.Bool("loadgen", false, "run as the load-generator process (started by perfbench itself)")
	flag.Parse()
	if *loadgen {
		if err := serveLoadgen(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench load generator:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Library code that logs through the process default stays quiet too.
	slog.SetDefault(discardLogger())
	if err := run(wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(wl *workload, seed uint64, seconds int, traced bool) error {
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(base, wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	gen, err := startGenerator()
	if err != nil {
		return err
	}
	defer gen.close()

	out := os.Stdout
	fmt.Fprintf(out, "workload %s seed %d seconds %d senders %d\n", wl.name, seed, seconds, senders)
	p := &pass{wl: wl, lib: libsynth.File(), seed: seed, seconds: seconds,
		root: filepath.Join(root, "untraced"), gen: gen}
	untraced, err := p.run()
	if err != nil {
		return err
	}
	report(out, "untraced", untraced)
	invalid := untraced.invalid
	res := result{
		Correct:   len(untraced.problems) == 0,
		Attempted: untraced.attempted,
		Failed:    untraced.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		for _, e := range e2eUnits {
			res.Metrics[e.name] = metric{Value: untraced.e2e[e.name], Unit: e.unit}
		}
	} else {
		tp := *p
		tp.root = filepath.Join(root, "traced")
		tp.rec = &recorder{}
		tr, err := tp.run()
		if err != nil {
			return err
		}
		report(out, "traced", tr)
		invalid = append(invalid, tr.invalid...)
		res.Correct = res.Correct && len(tr.problems) == 0
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		if res.Metrics, err = perLayer(&tp, tr, untraced); err != nil {
			return err
		}
		printMetrics(out, "per-layer", res.Metrics)
		for _, e := range e2eUnits {
			fmt.Fprintf(out, "tracing overhead %-20s %+.4f %s\n", e.name, tr.e2e[e.name]-untraced.e2e[e.name], e.unit)
		}
	}
	// A pass that measured the host or the generator rather than timingd
	// has no result: the run fails instead of reporting its numbers.
	if len(invalid) > 0 {
		return fmt.Errorf("run invalid: %s", strings.Join(invalid, "; "))
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a number", k)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// report prints one pass in readable form.
func report(w io.Writer, label string, r *passResult) {
	m := map[string]metric{}
	for _, e := range e2eUnits {
		m[e.name] = metric{Value: r.e2e[e.name], Unit: e.unit}
	}
	printMetrics(w, label+" end-to-end", m)
	tails := map[string]metric{}
	for name, v := range r.tails {
		tails[name] = metric{Value: v, Unit: "ms"}
	}
	printMetrics(w, label+" tail", tails)
	late := latenessP99(append(append([]sample(nil), r.open...), r.readBack...))
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, %d edits acked, generator lateness p99 %.3f ms\n",
		label, r.attempted, r.failed, len(r.acked), late)
	for _, why := range r.invalid {
		fmt.Fprintf(w, "%s: INVALID: %s\n", label, why)
	}
	reasons := make([]string, 0, len(r.rejected))
	for reason, n := range r.rejected {
		reasons = append(reasons, fmt.Sprintf("%d × %s", n, reason))
	}
	sort.Strings(reasons)
	for _, s := range reasons {
		fmt.Fprintf(w, "%s: pre-validation dropped %s\n", label, s)
	}
	if len(r.problems) == 0 {
		fmt.Fprintf(w, "%s: oracle checks passed\n", label)
	}
	for _, pr := range r.problems {
		fmt.Fprintf(w, "%s: ORACLE MISMATCH: %s\n", label, pr)
	}
}

func printMetrics(w io.Writer, label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %-40s %14.4f %s\n", label, k, m[k].Value, m[k].Unit)
	}
}
