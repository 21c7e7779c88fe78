// Package hydrac is a Go implementation of HYDRA-C — "Period
// Adaptation for Continuous Security Monitoring in Multicore Real-Time
// Systems" (Hasan, Mohan, Pellizzoni, Bobba — DATE 2020).
//
// HYDRA-C integrates periodic security monitoring tasks (intrusion
// detectors, integrity checkers, …) into a legacy partitioned
// multicore real-time system without touching the RT tasks: the
// security band runs below every RT task and may migrate to whichever
// core is idle (semi-partitioned scheduling), and each security task's
// period is minimised — the monitor runs as often as possible — while
// every schedulability guarantee is preserved.
//
// The public API is the Analyzer, a long-lived, concurrency-safe
// service object running the whole admission pipeline (validate →
// partition → Algorithm 1 period selection → baselines → simulation)
// and returning one structured Report per task set:
//
//	a, err := hydrac.New(
//		hydrac.WithBaselines(hydrac.SchemeHydra),
//		hydrac.WithSimulation(hydrac.SimConfig{Horizon: 60000}),
//		hydrac.WithCache(1024),
//	)
//	rep, err := a.Analyze(ctx, ts)
//	if err != nil || !rep.Schedulable { … }
//	for _, v := range rep.Tasks {
//		fmt.Println(v.Name, v.Period, v.WCRT)
//	}
//
// Period selection has one configuration, the paper's, with Eq. 8's
// carry-in maximum bounded by dominance; the options choose the
// partitioning heuristic, baselines, simulation and caching.
//
// AnalyzeBatch fans a bulk admission check out over all cores (one
// worker per GOMAXPROCS) with deterministic results; cmd/hydrad serves
// the same pipeline over HTTP (POST /v1/analyze). Analyzer.Baseline
// runs one comparison scheme alone; Report.ApplyTo and
// BaselineVerdict.ApplyTo write a verdict's periods into a set for
// Simulate, the door to full traces.
//
// See examples/ for runnable scenarios and the package table in
// DESIGN.md for the implementation packages.
package hydrac

import (
	"io"

	"hydrac/internal/partition"
	"hydrac/internal/sim"
	"hydrac/internal/task"
)

// Core model types.
type (
	// Time is an instant or duration in integer clock ticks.
	Time = task.Time
	// TaskSet is a complete system: cores, RT tasks, security tasks.
	// Validate, Hash, Clone and the utilisation helpers are promoted
	// from the underlying type.
	TaskSet = task.Set
	// RTTask is a partitioned hard real-time task (C, T, D).
	RTTask = task.RTTask
	// SecurityTask is a security monitor (C, T, Tmax).
	SecurityTask = task.SecurityTask
)

// DecodeTaskSet reads a task set from its JSON file format (the same
// schema cmd/hydrac and cmd/hydrad speak). Missing deadlines default
// to the period; missing priorities default to rate-monotonic (RT)
// and max-period-monotonic (security) order. The set is validated.
func DecodeTaskSet(r io.Reader) (*TaskSet, error) { return task.Decode(r) }

// EncodeTaskSet writes a task set as indented JSON in the file format
// DecodeTaskSet reads.
func EncodeTaskSet(w io.Writer, ts *TaskSet) error { return task.Encode(w, ts) }

// RT task partitioning.
type PartitionHeuristic = partition.Heuristic

// Partitioning heuristics for the RT band.
const (
	BestFit  = partition.BestFit
	FirstFit = partition.FirstFit
	WorstFit = partition.WorstFit
	NextFit  = partition.NextFit
)

// Simulation.
type (
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of a run.
	SimResult = sim.Result
	// Policy selects the migration model.
	Policy = sim.Policy
)

// Scheduling policies.
const (
	// SemiPartitioned pins RT tasks and migrates the security band
	// (HYDRA-C's runtime model).
	SemiPartitioned = sim.SemiPartitioned
	// FullyPartitioned pins both bands (HYDRA's runtime model).
	FullyPartitioned = sim.FullyPartitioned
	// Global migrates everything (GLOBAL-TMax's runtime model).
	Global = sim.Global
)

// Simulate runs the discrete-event scheduler on a configured set.
// For the summary quantities alone, prefer WithSimulation, which
// attaches them to every admitted report and stops with the context
// Analyze was given; Simulate remains the door to full traces
// (JobLog, Gantt).
func Simulate(ts *TaskSet, cfg SimConfig) (*SimResult, error) { return sim.Run(ts, cfg) }

// Gantt renders an ASCII schedule chart from a traced run.
func Gantt(r *SimResult, from, to, step Time) string { return sim.Gantt(r, from, to, step) }
