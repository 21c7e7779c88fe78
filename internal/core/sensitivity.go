package core

import (
	"fmt"

	"hydrac/internal/task"
)

// Sensitivity analysis: how much headroom the platform has before the
// security band stops fitting. These are design-time companions to
// Algorithm 1: when a task set is (un)schedulable, they tell the
// designer which knob to turn, in the spirit of the paper's remark
// that an unschedulability result "will help the designer in
// modifying the requirements".

// WCETSensitivity returns, per security task (in ts.Security order),
// the largest WCET the task could grow to — all other parameters
// unchanged, periods re-optimised — while the whole security band
// remains schedulable within its Tmax bounds. A task in an already
// unschedulable set reports 0.
func WCETSensitivity(ts *task.Set) ([]task.Time, error) {
	base, err := SelectPeriods(ts, Options{})
	if err != nil {
		return nil, err
	}
	out := make([]task.Time, len(ts.Security))
	if !base.Schedulable {
		return out, nil
	}
	for i := range ts.Security {
		lo, hi := ts.Security[i].WCET, ts.Security[i].MaxPeriod
		best := lo
		for lo <= hi {
			mid := (lo + hi) / 2
			probe := ts.Clone()
			probe.Security[i].WCET = mid
			res, err := SelectPeriods(probe, Options{})
			if err != nil {
				return nil, err
			}
			if res.Schedulable {
				best = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		out[i] = best
	}
	return out, nil
}

// ScaleSensitivity returns the largest uniform factor (in 1/256
// granularity) by which every security WCET can be multiplied while
// the set stays schedulable. It returns a factor < 1 when the set is
// unschedulable as given (how much the monitors would need to shrink),
// and 0 when even vanishing monitors do not fit (the RT band itself is
// infeasible for the bounds).
func ScaleSensitivity(ts *task.Set) (float64, error) {
	if len(ts.Security) == 0 {
		return 0, fmt.Errorf("core: no security tasks to scale")
	}
	const granularity = 256
	feasible := func(num int64) (bool, error) {
		probe := ts.Clone()
		for i := range probe.Security {
			w := probe.Security[i].WCET * num / granularity
			if w < 1 {
				w = 1
			}
			if w > probe.Security[i].MaxPeriod {
				return false, nil
			}
			probe.Security[i].WCET = w
		}
		res, err := SelectPeriods(probe, Options{})
		if err != nil {
			return false, err
		}
		return res.Schedulable, nil
	}
	// Exponential bracket, then binary search on the numerator.
	lo, hi := int64(0), int64(granularity)
	for {
		ok, err := feasible(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
		if hi > 64*granularity {
			return float64(lo) / granularity, nil // effectively unbounded
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return float64(lo) / granularity, nil
}
