// Command characterize runs the full library characterisation flow of the
// paper's Fig. 5 — Monte-Carlo moment extraction over the operating grid,
// Table-I quantile regression, slew surfaces, and the wire X_FI/X_FO
// calibration — and writes the resulting coefficients file.
//
// The run is fault tolerant: failed Monte-Carlo samples are retried and
// quarantined (bounded by -max-fail-frac), progress is checkpointed to the
// output file every -checkpoint-every arcs, and an interrupted run (Ctrl-C,
// SIGTERM, -timeout) can be resumed with -resume without re-simulating the
// arcs already fitted.
//
//	characterize -profile standard -out coeffs.json
//	characterize -profile standard -out coeffs.json -resume
//
// Observability: -trace-out records spans (characterisation arcs, MC grid
// points, individual transients) into a Chrome trace_event JSON file
// loadable in Perfetto; -metrics-out dumps the final Prometheus text
// exposition; -max-arcs bounds the run to the first N arcs for smoke tests
// and tracing demos; -log-level/-log-json configure structured logs.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/resilience"
	"repro/internal/timinglib"
)

func main() {
	var (
		profileName = flag.String("profile", "standard", "effort profile: quick | standard | paper")
		out         = flag.String("out", "coeffs.json", "output coefficients file")
		libertyOut  = flag.String("liberty", "", "also export a Liberty (.lib) document with LVF tables")
		seed        = flag.Uint64("seed", 1, "master random seed")
		workers     = flag.Int("workers", 0, "Monte-Carlo workers (0 = GOMAXPROCS)")
		resume      = flag.Bool("resume", false, "resume from a checkpointed output file, skipping fitted arcs")
		ckptEvery   = flag.Int("checkpoint-every", 4, "checkpoint the output file every N fitted arcs (0 disables)")
		maxFailFrac = flag.Float64("max-fail-frac", 0, "max quarantined sample fraction per grid point (0 = default 2%, negative disables quarantine)")
		mcTol       = flag.Float64("mc-tol", 0, "adaptive Monte-Carlo tolerance: stop a grid point once the delay mean and sigma 95% CI half-widths fall below this fraction of the mean delay (0 = draw the full sample budget)")
		mcFloor     = flag.Int("mc-floor", 0, "minimum adaptive Monte-Carlo samples before convergence is tested (0 = default 64; ignored without -mc-tol)")
		timeout     = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		cpuProfile  = flag.String("cpu-profile-out", "", "write a CPU profile to this file")
		memProfile  = flag.String("mem-profile-out", "", "write a heap profile to this file at exit")
		benchJSON   = flag.String("bench-out", "", "write phase wall times and allocation totals as JSON to this file")
		maxArcs     = flag.Int("max-arcs", 0, "stop after this many newly fitted arcs (0 = all; skips wire calibration, keeps the checkpoint resumable)")
		traceFlag   = flag.String("trace-out", "", "record spans and write a Chrome trace_event JSON file here at exit")
		metricsFlag = flag.String("metrics-out", "", "write the final Prometheus metrics exposition to this file at exit")
		logOpts     = obs.RegisterLogFlags(flag.CommandLine)
	)
	flag.Parse()

	var err error
	if err = logOpts.Setup(); err != nil {
		fatal(err)
	}
	traceOut, metricsOut = *traceFlag, *metricsFlag
	if traceOut != "" {
		obs.Trace.Enable(obs.DefaultSpanBuffer)
	}
	obs.RegisterRuntimeMetrics(obs.Default())
	prof, err = profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
		}
	}()
	var bench *profiling.Report
	if *benchJSON != "" {
		bench = profiling.NewReport("characterize")
	}

	profile, err := experiments.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	ctx := experiments.NewContext(profile, *seed)
	ctx.Log = os.Stderr
	ctx.Cfg.Workers = *workers
	ctx.Cfg.MaxFailFraction = *maxFailFrac
	if *mcTol < 0 {
		fatal(fmt.Errorf("characterize: -mc-tol must be non-negative, got %g", *mcTol))
	}
	ctx.Cfg.MCTol = *mcTol
	ctx.Cfg.MCFloor = *mcFloor

	runCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	opts := experiments.BuildFileOptions{
		CheckpointEvery: *ckptEvery,
		Checkpoint: func(f *timinglib.File) error {
			return f.Save(*out)
		},
		MaxArcs: *maxArcs,
	}
	if *resume {
		prev, err := timinglib.Load(*out)
		if err != nil {
			fatal(fmt.Errorf("resume from %s: %w", *out, err))
		}
		switch {
		case prev.Checkpoint == nil:
			fatal(fmt.Errorf("resume from %s: file carries no checkpoint metadata", *out))
		case prev.Checkpoint.Profile != profile.Name || prev.Checkpoint.Seed != *seed:
			fatal(fmt.Errorf("resume from %s: checkpoint was written by -profile %s -seed %d, rerun with those flags",
				*out, prev.Checkpoint.Profile, prev.Checkpoint.Seed))
		}
		if prev.Checkpoint.Complete {
			fmt.Fprintf(os.Stderr, "characterize: %s is already complete (%d arcs); nothing to resume\n",
				*out, len(prev.Arcs))
			return
		}
		fmt.Fprintf(os.Stderr, "characterize: resuming from %s (%d arcs already fitted)\n",
			*out, len(prev.Arcs))
		opts.Resume = prev
	}

	t0 := time.Now()
	var (
		f      *timinglib.File
		report *resilience.Report
	)
	err = bench.Time("characterize", func() error {
		f, report, err = ctx.BuildTimingFileContext(runCtx, opts)
		return err
	})
	if werr := bench.Write(*benchJSON); werr != nil {
		fmt.Fprintln(os.Stderr, "characterize:", werr)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The last checkpoint survives on disk; tell the user how to pick
			// the run back up and exit non-zero so scripts notice.
			fmt.Fprintf(os.Stderr, "characterize: interrupted (%v); rerun with -resume to continue from %s\n",
				err, *out)
			exit(1)
		}
		fatal(err)
	}
	if err := f.Save(*out); err != nil {
		fatal(err)
	}
	if *libertyOut != "" {
		lf, err := os.Create(*libertyOut)
		if err != nil {
			fatal(err)
		}
		if err := liberty.Export(lf, "nsigma28", f); err != nil {
			fatal(err)
		}
		if err := lf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Liberty/LVF export %s\n", *libertyOut)
	}
	fmt.Fprintln(os.Stderr, "characterize:", report.Summary())
	wireCells := 0
	if f.Wire != nil {
		wireCells = len(f.Wire.XFI)
	}
	fmt.Printf("wrote %s: %d arcs, %d cells, wire calibration over %d cells (took %v)\n",
		*out, len(f.Arcs), len(f.Cells), wireCells, time.Since(t0).Round(time.Second))
	flushObs()
}

// prof is package-level so that fatal/exit can flush profiles on error
// paths, where os.Exit would skip main's deferred Stop. traceOut/metricsOut
// get the same treatment: a partial trace of an interrupted run is exactly
// when you want one.
var (
	prof       *profiling.Session
	traceOut   string
	metricsOut string
)

// flushObs writes the trace and metrics dumps, if requested. Idempotent in
// effect (a second call rewrites identical files), so both the success path
// and exit() may call it.
func flushObs() {
	if traceOut != "" {
		if err := obs.Trace.WriteFile(traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
		} else {
			fmt.Fprintf(os.Stderr, "characterize: wrote trace %s (%d spans, %d dropped)\n",
				traceOut, obs.Trace.Len(), obs.Trace.Dropped())
		}
	}
	if metricsOut != "" {
		var buf bytes.Buffer
		obs.Default().WritePrometheus(&buf)
		if err := os.WriteFile(metricsOut, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	exit(1)
}

func exit(code int) {
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
	}
	flushObs()
	os.Exit(code)
}
