package sim

import (
	"fmt"
	"sort"
	"strings"

	"hydrac/internal/task"
)

// Interval is one contiguous execution slice of a job on a core.
type Interval struct {
	Start, End task.Time
	Core       int
}

// Duration returns End − Start.
func (iv Interval) Duration() task.Time { return iv.End - iv.Start }

// JobRecord is the per-job trace entry kept when Config.RecordIntervals
// is set. Finish is −1 for jobs still running at the horizon.
type JobRecord struct {
	Task      string
	Index     int
	Release   task.Time
	Finish    task.Time
	Deadline  task.Time
	Missed    bool
	Intervals []Interval
}

// TaskStats aggregates per-task counters across a run.
type TaskStats struct {
	Starts         int
	Completed      int
	DeadlineMisses int
	MaxResponse    task.Time
	TotalResponse  task.Time
}

// MeanResponse returns the average response time of completed jobs.
func (s TaskStats) MeanResponse() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalResponse) / float64(s.Completed)
}

// Result is the outcome of one simulation run.
type Result struct {
	Horizon                task.Time
	ContextSwitches        int
	Migrations             int
	RTDeadlineMisses       int
	SecurityDeadlineMisses int
	CoreBusy               []task.Time
	Stats                  map[string]*TaskStats
	// JobLog holds per-job traces (only with Config.RecordIntervals),
	// ordered by release time.
	JobLog []JobRecord
}

func newResult(cores int, horizon task.Time) *Result {
	return &Result{
		Horizon:  horizon,
		CoreBusy: make([]task.Time, cores),
		Stats:    map[string]*TaskStats{},
	}
}

func (r *Result) record(name string) *TaskStats {
	s := r.Stats[name]
	if s == nil {
		s = &TaskStats{}
		r.Stats[name] = s
	}
	return s
}

// Utilization returns the fraction of core-time spent executing.
func (r *Result) Utilization() float64 {
	if r.Horizon == 0 || len(r.CoreBusy) == 0 {
		return 0
	}
	var busy task.Time
	for _, b := range r.CoreBusy {
		busy += b
	}
	return float64(busy) / float64(r.Horizon*task.Time(len(r.CoreBusy)))
}

// JobsOf returns the trace records of one task, ordered by release.
func (r *Result) JobsOf(name string) []JobRecord {
	var out []JobRecord
	for _, rec := range r.JobLog {
		if rec.Task == name {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Release < out[b].Release })
	return out
}

// Summary renders a compact human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %d ticks, %d context switches, %d migrations, util %.3f\n",
		r.Horizon, r.ContextSwitches, r.Migrations, r.Utilization())
	fmt.Fprintf(&b, "deadline misses: RT %d, security %d\n", r.RTDeadlineMisses, r.SecurityDeadlineMisses)
	names := make([]string, 0, len(r.Stats))
	for n := range r.Stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Stats[n]
		fmt.Fprintf(&b, "  %-12s completed %5d  maxR %8d  meanR %10.1f  misses %d\n",
			n, s.Completed, s.MaxResponse, s.MeanResponse(), s.DeadlineMisses)
	}
	return b.String()
}
