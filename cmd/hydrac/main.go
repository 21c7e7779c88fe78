// Command hydrac is the front door to the HYDRA-C framework: it reads
// a task-set description (JSON) and computes security-task periods,
// compares against the baseline schemes, simulates the resulting
// schedule, or renders a Gantt chart. The analysis subcommands run on
// the hydrac.Analyzer pipeline — the same engine cmd/hydrad serves
// over HTTP.
//
// Usage:
//
//	hydrac analyze  -in taskset.json [-scheme hydra-c|hydra|hydra-aggressive|hydra-tmax|global-tmax] [-explain] [-json]
//	hydrac admit    -in base.json -deltas deltas.json [-json]   (replay a delta log incrementally)
//	hydrac simulate -in taskset.json [-horizon N] [-policy semi|partitioned|global]
//	hydrac gantt    -in taskset.json [-to N] [-step N]
//	hydrac sensitivity -in taskset.json                      (how far each monitor's WCET can grow)
//	hydrac generate [-cores M] [-group G] [-seed S]        (emit a random Table-3 task set)
//	hydrac example                                          (emit the paper's rover task set)
//
// -in - reads the task set from standard input.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"hydrac"
	"hydrac/internal/core"
	"hydrac/internal/gen"
	"hydrac/internal/rover"
	"hydrac/internal/sim"
	"hydrac/internal/task"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// usageError marks failures of argument handling (exit 2, like flag
// parsing) as opposed to runtime failures (exit 1).
type usageError struct{ error }

// run is the testable entry point: it dispatches subcommands and maps
// errors to exit codes (0 ok / help, 1 runtime failure, 2 usage).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "analyze":
		err = analyze(args[1:], stdin, stdout, stderr)
	case "admit":
		err = admitReplay(args[1:], stdin, stdout, stderr)
	case "simulate":
		err = simulate(args[1:], stdin, stdout, stderr)
	case "gantt":
		err = gantt(args[1:], stdin, stdout, stderr)
	case "sensitivity":
		err = sensitivity(args[1:], stdin, stdout, stderr)
	case "generate":
		err = generate(args[1:], stdout, stderr)
	case "example":
		err = task.Encode(stdout, rover.TaskSet())
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "hydrac: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usageError{}):
		fmt.Fprintln(stderr, "hydrac:", err)
		return 2
	default:
		fmt.Fprintln(stderr, "hydrac:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `hydrac — period adaptation for continuous security monitoring (DATE 2020)

subcommands:
  analyze      compute security-task periods for a task set
  admit        replay a delta log against a base set through an incremental session
  simulate     run the discrete-event scheduler on a configured set
  gantt        render a schedule chart (ASCII, optionally SVG)
  sensitivity  report how much each monitor's WCET can grow
  generate     emit a random Table-3 synthetic task set (JSON)
  example      emit the paper's rover task set (JSON)

run 'hydrac <subcommand> -h' for flags; 'hydrac -h' prints this help.
cmd/hydrad serves the analyze pipeline over HTTP.`)
}

// newFlagSet standardises subcommand flag handling: errors print to
// stderr and surface as usage errors, -h as flag.ErrHelp.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))}
	}
	return nil
}

// load reads a task set from path, or from stdin when path is "-".
func load(path string, stdin io.Reader) (*task.Set, error) {
	if path == "-" {
		return task.Decode(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return task.Decode(f)
}

func analyze(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("analyze", stderr)
	in := fs.String("in", "", "task set JSON file (required; - for stdin)")
	scheme := fs.String("scheme", "hydra-c", "hydra-c | hydra | hydra-aggressive | hydra-tmax | global-tmax")
	explain := fs.Bool("explain", false, "print the per-task interference breakdown (hydra-c only)")
	jsonOut := fs.Bool("json", false, "emit the versioned report envelope instead of tables")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usageError{errors.New("analyze: -in is required")}
	}
	ts, err := load(*in, stdin)
	if err != nil {
		return err
	}
	ctx := context.Background()
	a, err := hydrac.New()
	if err != nil {
		return err
	}
	if *scheme == "hydra-c" {
		rep, err := a.Analyze(ctx, ts)
		if err != nil {
			return err
		}
		if *jsonOut {
			return hydrac.WriteReport(stdout, rep)
		}
		if !rep.Schedulable {
			fmt.Fprintln(stdout, "UNSCHEDULABLE: no period assignment within the designer bounds")
			return nil
		}
		fmt.Fprintf(stdout, "%-16s %10s %10s %10s\n", "security task", "T* (ms)", "WCRT (ms)", "Tmax (ms)")
		for _, v := range rep.Tasks {
			fmt.Fprintf(stdout, "%-16s %10d %10d %10d\n", v.Name, v.Period, v.WCRT, v.MaxPeriod)
		}
		if *explain {
			periods := make([]task.Time, len(rep.Tasks))
			for i, v := range rep.Tasks {
				periods[i] = v.Period
			}
			// Diagnose the placement the Analyzer actually analysed —
			// ApplyTo reconstructs it when the input arrived
			// unpartitioned.
			analysed, err := rep.ApplyTo(ts)
			if err != nil {
				return err
			}
			diags, err := core.Diagnose(analysed, periods)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			for _, d := range diags {
				fmt.Fprint(stdout, d.Render())
			}
		}
		return nil
	}

	sch, err := hydrac.ParseScheme(*scheme)
	if err != nil {
		return usageError{fmt.Errorf("analyze: %w", err)}
	}
	v, err := a.Baseline(ctx, ts, sch)
	if err != nil {
		return err
	}
	if *jsonOut {
		// Scheme marks the top-level verdict as this baseline's, not
		// HYDRA-C's — consumers of the shared envelope must not read
		// it as an admission verdict.
		rep := &hydrac.Report{
			Scheme:      sch,
			Schedulable: v.Schedulable, TaskSetHash: ts.Hash(), Cores: ts.Cores,
			Tasks: v.Tasks, Baselines: []hydrac.BaselineVerdict{*v},
		}
		return hydrac.WriteReport(stdout, rep)
	}
	switch sch {
	case hydrac.SchemeGlobalTMax:
		fmt.Fprintf(stdout, "schedulable: %v\n", v.Schedulable)
		for _, t := range v.RT {
			fmt.Fprintf(stdout, "%-16s R=%d D=%d\n", t.Name, t.WCRT, t.Deadline)
		}
		for _, s := range v.Tasks {
			fmt.Fprintf(stdout, "%-16s R=%d Tmax=%d\n", s.Name, s.WCRT, s.MaxPeriod)
		}
	default:
		if !v.Schedulable {
			fmt.Fprintln(stdout, "UNSCHEDULABLE under the partitioned baseline")
			return nil
		}
		fmt.Fprintf(stdout, "%-16s %10s %10s %6s\n", "security task", "T (ms)", "WCRT (ms)", "core")
		for _, s := range v.Tasks {
			fmt.Fprintf(stdout, "%-16s %10d %10d %6d\n", s.Name, s.Period, s.WCRT, s.Core)
		}
	}
	return nil
}

// admitReplay replays a delta log against a base set through an
// incremental admission session — the CLI face of the same engine
// hydrad's /v1/session endpoints serve. Each delta prints one status
// line (admitted / denied); the final committed state's report follows
// (table, or the envelope with -json). Denials do not abort the
// replay; hard errors (unknown names, infeasible RT placements) do.
func admitReplay(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("admit", stderr)
	in := fs.String("in", "", "base task set JSON file (required; - for stdin)")
	deltas := fs.String("deltas", "", "delta log JSON file: an array of delta objects (required)")
	jsonOut := fs.Bool("json", false, "emit the final report envelope instead of tables")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usageError{errors.New("admit: -in is required")}
	}
	if *deltas == "" {
		return usageError{errors.New("admit: -deltas is required")}
	}
	ts, err := load(*in, stdin)
	if err != nil {
		return err
	}
	df, err := os.Open(*deltas)
	if err != nil {
		return err
	}
	log, err := hydrac.DecodeDeltaLog(df)
	df.Close()
	if err != nil {
		return err
	}

	ctx := context.Background()
	a, err := hydrac.New()
	if err != nil {
		return err
	}
	sess, rep, err := a.NewSession(ctx, ts)
	if err != nil {
		return err
	}
	status := io.Writer(stdout)
	if *jsonOut {
		status = stderr // keep stdout a clean envelope
	}
	fmt.Fprintf(status, "base: %d RT + %d security tasks on %d cores, schedulable=%v\n",
		len(ts.RT), len(ts.Security), ts.Cores, rep.Schedulable)
	final := rep
	for i, d := range log {
		stepRep, admitted, err := sess.Admit(ctx, d)
		if err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
		verdict := "DENIED"
		switch {
		case admitted && stepRep.Schedulable:
			verdict = "admitted"
		case admitted:
			verdict = "committed (removal-only, still unschedulable)"
		}
		fmt.Fprintf(status, "delta %d: %s (-%d +%d RT +%d security)\n",
			i, verdict, len(d.Remove), len(d.AddRT), len(d.AddSecurity))
		if admitted {
			final = stepRep
		}
	}
	if *jsonOut {
		return hydrac.WriteReport(stdout, final)
	}
	if !final.Schedulable {
		fmt.Fprintln(stdout, "UNSCHEDULABLE: no period assignment within the designer bounds")
		return nil
	}
	fmt.Fprintf(stdout, "%-16s %10s %10s %10s\n", "security task", "T* (ms)", "WCRT (ms)", "Tmax (ms)")
	for _, v := range final.Tasks {
		fmt.Fprintf(stdout, "%-16s %10d %10d %10d\n", v.Name, v.Period, v.WCRT, v.MaxPeriod)
	}
	return nil
}

func configure(ts *task.Set, policy sim.Policy) (*task.Set, error) {
	// If the file already carries periods, respect them; otherwise run
	// the scheme matching the policy.
	have := true
	for _, s := range ts.Security {
		if s.Period == 0 {
			have = false
			break
		}
	}
	if have {
		return ts, nil
	}
	a, err := hydrac.New()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if policy == sim.FullyPartitioned {
		v, err := a.Baseline(ctx, ts, hydrac.SchemeHydraAggressive)
		if err != nil {
			return nil, err
		}
		if !v.Schedulable {
			return nil, fmt.Errorf("HYDRA cannot configure this set")
		}
		return v.ApplyTo(ts)
	}
	rep, err := a.Analyze(ctx, ts)
	if err != nil {
		return nil, err
	}
	if !rep.Schedulable {
		return nil, fmt.Errorf("HYDRA-C cannot configure this set")
	}
	return rep.ApplyTo(ts)
}

func parsePolicy(s string) (sim.Policy, error) {
	switch s {
	case "semi":
		return sim.SemiPartitioned, nil
	case "partitioned":
		return sim.FullyPartitioned, nil
	case "global":
		return sim.Global, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (semi|partitioned|global)", s)
	}
}

func simulate(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("simulate", stderr)
	in := fs.String("in", "", "task set JSON file (required; - for stdin)")
	horizon := fs.Int64("horizon", 60000, "simulation horizon in ticks")
	policy := fs.String("policy", "semi", "semi | partitioned | global")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usageError{errors.New("simulate: -in is required")}
	}
	ts, err := load(*in, stdin)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return usageError{err}
	}
	cfgd, err := configure(ts, pol)
	if err != nil {
		return err
	}
	res, err := sim.Run(cfgd, sim.Config{Policy: pol, Horizon: *horizon})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Summary())
	return nil
}

func gantt(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("gantt", stderr)
	in := fs.String("in", "", "task set JSON file (required; - for stdin)")
	to := fs.Int64("to", 2000, "render window end (ticks)")
	step := fs.Int64("step", 0, "ticks per column (default: window/100)")
	policy := fs.String("policy", "semi", "semi | partitioned | global")
	svgPath := fs.String("svg", "", "also write an SVG chart to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usageError{errors.New("gantt: -in is required")}
	}
	ts, err := load(*in, stdin)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return usageError{err}
	}
	cfgd, err := configure(ts, pol)
	if err != nil {
		return err
	}
	res, err := sim.Run(cfgd, sim.Config{Policy: pol, Horizon: *to, RecordIntervals: true})
	if err != nil {
		return err
	}
	st := *step
	if st <= 0 {
		st = max(*to/100, 1)
	}
	fmt.Fprint(stdout, sim.Gantt(res, 0, *to, st))
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sim.GanttSVG(f, res, 0, *to); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *svgPath)
	}
	return nil
}

func sensitivity(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("sensitivity", stderr)
	in := fs.String("in", "", "task set JSON file (required; - for stdin)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usageError{errors.New("sensitivity: -in is required")}
	}
	ts, err := load(*in, stdin)
	if err != nil {
		return err
	}
	perTask, err := core.WCETSensitivity(ts)
	if err != nil {
		return err
	}
	scale, err := core.ScaleSensitivity(ts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-16s %10s %12s %8s\n", "security task", "WCET (ms)", "max WCET", "headroom")
	for i, s := range ts.Security {
		fmt.Fprintf(stdout, "%-16s %10d %12d %7.1fx\n", s.Name, s.WCET, perTask[i], float64(perTask[i])/float64(s.WCET))
	}
	fmt.Fprintf(stdout, "uniform scale factor for the whole security band: %.2fx\n", scale)
	return nil
}

func generate(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("generate", stderr)
	cores := fs.Int("cores", 2, "number of cores M")
	group := fs.Int("group", 3, "utilisation group 0..9")
	seed := fs.Int64("seed", 1, "random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := gen.TableThree(*cores)
	ts, err := cfg.Generate(rand.New(rand.NewSource(*seed)), *group)
	if err != nil {
		return err
	}
	return task.Encode(stdout, ts)
}
