// Package task defines the real-time and security task model used
// throughout the repository. It mirrors the model of Hasan et al.,
// "Period Adaptation for Continuous Security Monitoring in Multicore
// Real-Time Systems" (DATE 2020), §2: sporadic real-time tasks
// (C, T, D) with constrained deadlines and rate-monotonic priorities,
// partitioned onto identical cores, plus periodic security tasks
// (C, T, Tmax) with implicit deadlines that execute below every
// real-time task and may migrate across cores.
//
// All times are integer clock ticks, matching the paper's assumption
// that "all events in the system happen with the precision of integer
// clock ticks". In the rover experiments one tick is one millisecond.
package task

import (
	"fmt"
	"sort"
)

// Time is a duration or instant measured in integer clock ticks.
type Time = int64

// Infinity is a sentinel response time for tasks that never converge;
// it is larger than any horizon used by the analyses.
const Infinity Time = 1<<62 - 1

// RTTask is a sporadic real-time task τr = (C, T, D) statically
// assigned to one core. Priorities follow rate-monotonic order:
// a numerically smaller Priority value means higher priority.
type RTTask struct {
	// Name identifies the task in traces and reports.
	Name string
	// WCET is the worst-case execution time C.
	WCET Time
	// Period is the minimum inter-arrival time T.
	Period Time
	// Deadline is the relative deadline D, constrained: D <= T.
	Deadline Time
	// Core is the index of the core the task is partitioned onto,
	// or -1 when the task has not been assigned yet.
	Core int
	// Priority is the fixed priority; lower value = higher priority.
	Priority int
}

// Utilization returns C/T.
func (t RTTask) Utilization() float64 {
	return float64(t.WCET) / float64(t.Period)
}

// Validate reports whether the task parameters form a well-defined
// constrained-deadline sporadic task.
func (t RTTask) Validate() error {
	switch {
	case t.WCET <= 0:
		return fmt.Errorf("task %s: WCET must be positive, got %d", t.Name, t.WCET)
	case t.Period <= 0:
		return fmt.Errorf("task %s: period must be positive, got %d", t.Name, t.Period)
	case t.Deadline <= 0:
		return fmt.Errorf("task %s: deadline must be positive, got %d", t.Name, t.Deadline)
	case t.Deadline > t.Period:
		return fmt.Errorf("task %s: deadline %d exceeds period %d (constrained deadlines required)", t.Name, t.Deadline, t.Period)
	case t.WCET > t.Deadline:
		return fmt.Errorf("task %s: WCET %d exceeds deadline %d (trivially unschedulable)", t.Name, t.WCET, t.Deadline)
	}
	return nil
}

// SecurityTask is a periodic security task τs = (C, T, Tmax). The
// period T is the design variable chosen by the framework; Tmax is the
// designer-provided upper bound beyond which monitoring is considered
// ineffective. Deadlines are implicit (D = T). Security tasks always
// run below every RT task; among themselves they have distinct fixed
// priorities (lower value = higher priority).
type SecurityTask struct {
	// Name identifies the task in traces and reports.
	Name string
	// WCET is the worst-case execution time C.
	WCET Time
	// Period is the currently assigned period T; zero means "not yet
	// chosen" (the period-selection algorithms fill it in).
	Period Time
	// MaxPeriod is the designer bound Tmax.
	MaxPeriod Time
	// Priority orders security tasks among themselves;
	// lower value = higher priority.
	Priority int
	// Core is the core a *partitioned* scheme bound the task to
	// (HYDRA / HYDRA-TMax); -1 means migrating (HYDRA-C, GLOBAL).
	Core int
}

// MinUtilization returns C/Tmax, the utilisation floor the task is
// guaranteed to consume when running at its slowest acceptable rate.
func (s SecurityTask) MinUtilization() float64 {
	return float64(s.WCET) / float64(s.MaxPeriod)
}

// Validate reports whether the security task parameters are well formed.
func (s SecurityTask) Validate() error {
	switch {
	case s.WCET <= 0:
		return fmt.Errorf("security task %s: WCET must be positive, got %d", s.Name, s.WCET)
	case s.MaxPeriod <= 0:
		return fmt.Errorf("security task %s: max period must be positive, got %d", s.Name, s.MaxPeriod)
	case s.WCET > s.MaxPeriod:
		return fmt.Errorf("security task %s: max period %d is below the minimum feasible period (a job needs at least its WCET %d to run; raise Tmax or shrink the monitor)", s.Name, s.MaxPeriod, s.WCET)
	case s.Period < 0:
		return fmt.Errorf("security task %s: period must be non-negative, got %d", s.Name, s.Period)
	case s.Period > 0 && s.Period > s.MaxPeriod:
		return fmt.Errorf("security task %s: period %d exceeds max period %d", s.Name, s.Period, s.MaxPeriod)
	}
	return nil
}

// Set is a complete system: M identical cores, the partitioned RT
// tasks and the security tasks to integrate.
type Set struct {
	// Cores is the number of identical processors M.
	Cores int
	// RT holds the real-time tasks Γ_R.
	RT []RTTask
	// Security holds the security tasks Γ_S.
	Security []SecurityTask
}

// Validate checks structural well-formedness: positive core count,
// valid tasks, distinct security priorities, unique task names, and
// core assignments within range when present. It is the single
// admission gate — every public entry point of the analysis packages
// calls it, so a set that validates here is accepted everywhere.
func (ts *Set) Validate() error {
	if ts.Cores <= 0 {
		return fmt.Errorf("core count must be positive, got %d (a platform needs at least one core)", ts.Cores)
	}
	// Names key traces, reports and period lookups; a duplicate would
	// silently merge two tasks' statistics. Unnamed tasks are allowed.
	names := make(map[string]bool, len(ts.RT)+len(ts.Security))
	for _, t := range ts.RT {
		if err := t.Validate(); err != nil {
			return err
		}
		if t.Core >= ts.Cores {
			return fmt.Errorf("task %s: core %d out of range [0,%d)", t.Name, t.Core, ts.Cores)
		}
		if t.Name != "" && names[t.Name] {
			return fmt.Errorf("duplicate task name %q (names identify tasks in reports and traces; rename one)", t.Name)
		}
		names[t.Name] = true
	}
	seen := make(map[int]string, len(ts.Security))
	for _, s := range ts.Security {
		if err := s.Validate(); err != nil {
			return err
		}
		if prev, dup := seen[s.Priority]; dup {
			return fmt.Errorf("security tasks %s and %s share priority %d (priorities must be distinct)", prev, s.Name, s.Priority)
		}
		seen[s.Priority] = s.Name
		if s.Core >= ts.Cores {
			return fmt.Errorf("security task %s: core %d out of range [0,%d)", s.Name, s.Core, ts.Cores)
		}
		if s.Name != "" && names[s.Name] {
			return fmt.Errorf("duplicate task name %q (names identify tasks in reports and traces; rename one)", s.Name)
		}
		names[s.Name] = true
	}
	return nil
}

// RTUtilization returns the total utilisation of the RT tasks.
func (ts *Set) RTUtilization() float64 {
	var u float64
	for _, t := range ts.RT {
		u += t.Utilization()
	}
	return u
}

// SecurityMinUtilization returns Σ Cs/Tmax, the paper's minimum
// utilisation requirement for the security band.
func (ts *Set) SecurityMinUtilization() float64 {
	var u float64
	for _, s := range ts.Security {
		u += s.MinUtilization()
	}
	return u
}

// MinUtilization returns the paper's U = Σ Cr/Tr + Σ Cs/Tmax, the
// x-axis quantity of Figs. 6 and 7 before normalising by M.
func (ts *Set) MinUtilization() float64 {
	return ts.RTUtilization() + ts.SecurityMinUtilization()
}

// NormalizedUtilization returns U/M.
func (ts *Set) NormalizedUtilization() float64 {
	return ts.MinUtilization() / float64(ts.Cores)
}

// RTOnCore returns the RT tasks partitioned onto core m, ordered by
// priority (highest first).
func (ts *Set) RTOnCore(m int) []RTTask {
	var out []RTTask
	for _, t := range ts.RT {
		if t.Core == m {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Priority < out[j].Priority })
	return out
}

// SecurityByPriority returns the security tasks ordered highest
// priority first. The receiver is not modified.
func (ts *Set) SecurityByPriority() []SecurityTask {
	out := make([]SecurityTask, len(ts.Security))
	copy(out, ts.Security)
	sort.Slice(out, func(i, j int) bool { return out[i].Priority < out[j].Priority })
	return out
}

// Clone returns a deep copy of the set.
func (ts *Set) Clone() *Set {
	cp := &Set{Cores: ts.Cores}
	cp.RT = append([]RTTask(nil), ts.RT...)
	cp.Security = append([]SecurityTask(nil), ts.Security...)
	return cp
}

// AssignRateMonotonic assigns RM priorities to the RT tasks in place:
// shorter period means higher priority; ties break by name for
// determinism. Priority values start at 0 (highest).
func AssignRateMonotonic(rt []RTTask) {
	idx := make([]int, len(rt))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := rt[idx[a]], rt[idx[b]]
		if i.Period != j.Period {
			return i.Period < j.Period
		}
		return i.Name < j.Name
	})
	for p, i := range idx {
		rt[i].Priority = p
	}
}

// AssignMaxPeriodMonotonic assigns distinct priorities to security
// tasks by ascending Tmax (the analogue of RM for the security band);
// ties break by name.
func AssignMaxPeriodMonotonic(sec []SecurityTask) {
	idx := make([]int, len(sec))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := sec[idx[a]], sec[idx[b]]
		if i.MaxPeriod != j.MaxPeriod {
			return i.MaxPeriod < j.MaxPeriod
		}
		return i.Name < j.Name
	})
	for p, i := range idx {
		sec[i].Priority = p
	}
}
