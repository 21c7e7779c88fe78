// Package partition implements the bin-packing heuristics the paper
// uses to place RT tasks on cores ("assigned to the cores using a
// standard task partitioning algorithm", §2.1; best-fit in the
// synthetic evaluation, Table 3). Admission on a core is the exact
// uniprocessor RTA test of Eq. 1, not a utilisation bound, so a task
// is placed only where it and the tasks already placed remain
// schedulable.
package partition

import (
	"context"
	"fmt"
	"sort"

	"hydrac/internal/rta"
	"hydrac/internal/task"
)

// Heuristic selects among the feasible cores for a task.
type Heuristic int

const (
	// BestFit picks the feasible core with the least remaining
	// utilisation capacity (the paper's default).
	BestFit Heuristic = iota
	// FirstFit picks the lowest-indexed feasible core.
	FirstFit
	// WorstFit picks the feasible core with the most remaining
	// utilisation capacity.
	WorstFit
	// NextFit rotates through cores, continuing from the last
	// placement.
	NextFit
)

// String returns the conventional name of the heuristic.
func (h Heuristic) String() string {
	switch h {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	case NextFit:
		return "next-fit"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// ErrInfeasible reports the first task that could not be placed.
type ErrInfeasible struct{ Task string }

func (e ErrInfeasible) Error() string {
	return fmt.Sprintf("partitioning: no feasible core for task %s", e.Task)
}

// Assign partitions ts.RT onto ts.Cores cores in place using h.
// Tasks are considered in decreasing-utilisation order (the standard
// ordering for partitioned RM bin packing); each candidate placement
// is admitted with the exact RTA test. On success every task's Core
// field is set; on failure the set is left unmodified and an
// ErrInfeasible is returned.
func Assign(ts *task.Set, h Heuristic) error {
	return AssignCtx(context.Background(), ts, h)
}

// AssignCtx is Assign with cancellation: placement is abandoned
// between tasks when ctx is done, returning ctx.Err() with the set
// unmodified.
func AssignCtx(ctx context.Context, ts *task.Set, h Heuristic) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	order := make([]int, len(ts.RT))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := ts.RT[order[a]].Utilization(), ts.RT[order[b]].Utilization()
		if ua != ub {
			return ua > ub
		}
		return ts.RT[order[a]].Name < ts.RT[order[b]].Name
	})

	cores := make([][]task.RTTask, ts.Cores)
	util := make([]float64, ts.Cores)
	assigned := make([]int, len(ts.RT))
	cursor := 0

	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := ts.RT[i]
		m, next := Place(h, cores, util, cursor, t)
		if m < 0 {
			return ErrInfeasible{Task: t.Name}
		}
		t.Core, cursor = m, next
		cores[m] = insertByPriority(cores[m], t)
		util[m] += t.Utilization()
		assigned[i] = m
	}
	for i := range ts.RT {
		ts.RT[i].Core = assigned[i]
	}
	return nil
}

// Place picks a core for t under h without moving any task already
// placed: cores[m] holds core m's tasks sorted by priority (highest
// first), util[m] their utilisation and cursor the next-fit rotation
// state. It returns the chosen core, or -1 when no core stays
// schedulable under Eq. 1 with t added, and the cursor for the next
// placement. Adding t to the core is left to the caller, which keeps
// util in its own summation order: the float sums decide best- and
// worst-fit comparisons, so placements stay bit-identical per caller.
func Place(h Heuristic, cores [][]task.RTTask, util []float64, cursor int, t task.RTTask) (core, next int) {
	n := len(cores)
	if h == NextFit {
		for k := 0; k < n; k++ {
			if m := (cursor + k) % n; fits(cores[m], t) {
				return m, m
			}
		}
		return -1, cursor
	}
	best := -1
	for m := 0; m < n; m++ {
		switch h {
		case FirstFit:
			if fits(cores[m], t) {
				return m, cursor
			}
		case BestFit:
			// least remaining capacity = highest utilisation.
			if (best == -1 || util[m] > util[best]) && fits(cores[m], t) {
				best = m
			}
		case WorstFit:
			if (best == -1 || util[m] < util[best]) && fits(cores[m], t) {
				best = m
			}
		}
	}
	return best, cursor
}

// fits reports whether adding t to the core keeps every task on the
// core schedulable under Eq. 1.
func fits(core []task.RTTask, t task.RTTask) bool {
	cand := insertByPriority(append([]task.RTTask(nil), core...), t)
	return rta.CoreSchedulable(cand)
}

// insertByPriority inserts t keeping the slice sorted by priority
// (highest, i.e. smallest value, first).
func insertByPriority(core []task.RTTask, t task.RTTask) []task.RTTask {
	i := sort.Search(len(core), func(i int) bool { return core[i].Priority > t.Priority })
	core = append(core, task.RTTask{})
	copy(core[i+1:], core[i:])
	core[i] = t
	return core
}
