// Command repro regenerates the tables and figures of the paper's
// evaluation section. By default it runs everything; -table / -fig select
// subsets, -profile scales the Monte-Carlo effort, and -lib caches the
// characterised coefficients file between runs.
//
// Examples:
//
//	repro -profile quick -table 2
//	repro -profile standard -fig 10
//	repro -lib coeffs.json -table 3 -circuits c432,c1355
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/timinglib"
)

func main() {
	var (
		profileName = flag.String("profile", "standard", "effort profile: quick | standard | paper")
		table       = flag.String("table", "", "tables to run (comma list of 2,3; empty = all)")
		fig         = flag.String("fig", "", "figures to run (comma list of 2,3,4,7,8,9,10,11; empty = all)")
		only        = flag.Bool("selected-only", false, "run only the explicitly selected tables/figures")
		circuitsCSV = flag.String("circuits", "", "Table III circuit subset (comma list; empty = all 12)")
		libPath     = flag.String("lib", "", "coefficients file to load/save (caches characterisation)")
		csvDir      = flag.String("csv", "", "also write table2/table3/fig10 results as CSV into this directory")
		seed        = flag.Uint64("seed", 1, "master random seed")
		quiet       = flag.Bool("q", false, "suppress progress logging")
		cpuProfile  = flag.String("cpu-profile-out", "", "write a CPU profile to this file")
		memProfile  = flag.String("mem-profile-out", "", "write a heap profile to this file at exit")
		benchJSON   = flag.String("bench-out", "", "write per-table/figure wall times and allocation totals as JSON to this file")
	)
	logOpts := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if err := logOpts.Setup(); err != nil {
		fatal(err)
	}

	var err error
	prof, err = profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
		}
	}()
	var bench *profiling.Report
	if *benchJSON != "" {
		bench = profiling.NewReport("repro")
	}

	profile, err := experiments.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	ctx := experiments.NewContext(profile, *seed)
	if !*quiet {
		ctx.Log = os.Stderr
	}

	if *libPath != "" {
		if f, err := timinglib.Load(*libPath); err == nil {
			fmt.Fprintf(os.Stderr, "loaded coefficients file %s (%d arcs)\n", *libPath, len(f.Arcs))
			ctx.UseTimingFile(f)
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}

	selected := func(csv, id string) bool {
		if csv == "" {
			return !*only
		}
		for _, v := range strings.Split(csv, ",") {
			if strings.TrimSpace(v) == id {
				return true
			}
		}
		return false
	}

	type csvWriter interface {
		WriteCSV(w io.Writer) error
	}
	run := func(id string, f func() (interface{ Format() string }, error)) {
		fmt.Printf("==== %s ====\n", id)
		var r interface{ Format() string }
		err := bench.Time(id, func() error {
			var ferr error
			r, ferr = f()
			return ferr
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Println(r.Format())
		if *csvDir != "" {
			if cw, ok := r.(csvWriter); ok {
				name := strings.ToLower(strings.NewReplacer(" ", "", ".", "").Replace(id)) + ".csv"
				fh, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					fatal(err)
				}
				if err := cw.WriteCSV(fh); err != nil {
					fatal(err)
				}
				if err := fh.Close(); err != nil {
					fatal(err)
				}
			}
		}
	}

	if selected(*fig, "2") {
		run("Fig. 2", func() (interface{ Format() string }, error) { return ctx.RunFig2() })
	}
	if selected(*fig, "3") {
		run("Fig. 3", func() (interface{ Format() string }, error) { return ctx.RunFig3() })
	}
	if selected(*fig, "4") {
		run("Fig. 4", func() (interface{ Format() string }, error) { return ctx.RunFig4() })
	}
	if selected(*table, "2") {
		run("Table II", func() (interface{ Format() string }, error) { return ctx.RunTable2() })
	}
	if selected(*fig, "7") {
		run("Fig. 7", func() (interface{ Format() string }, error) { return ctx.RunFig7() })
	}
	if selected(*fig, "8") {
		run("Fig. 8", func() (interface{ Format() string }, error) { return ctx.RunFig8() })
	}
	if selected(*fig, "9") {
		run("Fig. 9", func() (interface{ Format() string }, error) { return ctx.RunFig9() })
	}
	if selected(*fig, "10") {
		run("Fig. 10", func() (interface{ Format() string }, error) { return ctx.RunFig10() })
	}
	if selected(*fig, "11") {
		run("Fig. 11", func() (interface{ Format() string }, error) { return ctx.RunFig11() })
	}
	if selected(*table, "3") {
		var names []string
		if *circuitsCSV != "" {
			for _, v := range strings.Split(*circuitsCSV, ",") {
				names = append(names, strings.TrimSpace(v))
			}
		}
		run("Table III", func() (interface{ Format() string }, error) { return ctx.RunTable3(names) })
	}

	if *libPath != "" {
		f, err := ctx.BuildTimingFile()
		if err != nil {
			fatal(err)
		}
		if err := f.Save(*libPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved coefficients file %s\n", *libPath)
	}
	if err := bench.Write(*benchJSON); err != nil {
		fatal(err)
	}
}

// prof is package-level so that fatal can flush profiles on error paths,
// where os.Exit would skip main's deferred Stop.
var prof *profiling.Session

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	if serr := prof.Stop(); serr != nil {
		fmt.Fprintln(os.Stderr, "repro:", serr)
	}
	os.Exit(1)
}
