// Command rover reproduces the paper's embedded-platform experiments
// (§5.1, Figs. 5a and 5b) on the simulated RPi3 rover: intrusion
// detection latency and context-switch overhead for HYDRA-C vs HYDRA,
// plus the controlled pinned-vs-migrating comparison and the Table 2
// platform summary.
//
// Usage:
//
//	rover [-trials N] [-seed S] [-objects N] [-parallel N] [-progress]
//	      [-hist] [-table2]
//
// -parallel shards the trials over N workers (0 = all CPUs); for a
// fixed seed the output is identical at any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hydrac/internal/experiments"
	"hydrac/internal/metrics"
	"hydrac/internal/rover"
	"hydrac/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 35, "number of attack trials (paper: 35)")
	seed := fs.Int64("seed", 1, "random seed")
	objects := fs.Int("objects", 64, "files in the protected image store")
	parallel := fs.Int("parallel", 0, "trial workers: 0 = all CPUs, 1 = serial; results are identical at any value")
	progress := fs.Bool("progress", false, "report trial progress on stderr")
	table2 := fs.Bool("table2", false, "print the Table 2 platform summary and exit")
	hist := fs.Bool("hist", false, "also print detection-latency histograms")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *table2 {
		fmt.Fprint(stdout, rover.TableTwo())
		return 0
	}

	cfg := rover.DefaultTrialConfig()
	cfg.Trials = *trials
	cfg.Seed = *seed
	cfg.Objects = *objects
	cfg.Parallel = *parallel
	if *progress {
		// experiments.Fig5 rebases (done, total) over all its sweeps,
		// so one throttled printer covers the whole run. Each trial is
		// replayed once per comparison sweep, hence "trial runs": the
		// total is a multiple of -trials, not the trial count itself.
		cfg.Progress = sweep.ProgressPrinter(stderr, "rover: trial runs")
	}

	res, err := experiments.Fig5(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err) // internal/rover errors carry the "rover: " prefix
		return 1
	}
	fmt.Fprint(stdout, res.Render())

	if *hist {
		hi := res.HydraC.DetectionMS.Max()
		if h2 := res.Hydra.DetectionMS.Max(); h2 > hi {
			hi = h2
		}
		for _, s := range []*rover.SchemeResult{res.HydraC, res.Hydra} {
			fmt.Fprintf(stdout, "\n%s detection-latency distribution (ms):\n", s.Scheme)
			h := metrics.NewHistogram(0, hi+1, 8)
			h.AddSample(&s.DetectionMS)
			fmt.Fprint(stdout, h.Render(40))
		}
	}
	return 0
}
