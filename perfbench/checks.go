package main

import (
	"bytes"
	"fmt"
	"sync"

	"hydrac"
	"hydrac/internal/oracle"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

// checkAnalysis verifies one /v1/analyze response against the request
// body it answers: envelope shape, cache flag, hash, best-fit
// placement, and the selection itself against oracle.VerifySelection,
// the independent restatement of Eqs. 5-8 and Algorithm 1, at the
// given level stride. It reports whether the set was schedulable.
func checkAnalysis(body, resp []byte, wantHit bool, stride int) (bool, error) {
	ts, err := hydrac.DecodeTaskSet(bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	rep, err := hydrac.ReadReport(bytes.NewReader(resp))
	if err != nil {
		return false, fmt.Errorf("reading report: %w", err)
	}
	switch {
	case rep.Scheme != hydrac.SchemeHydraC:
		return false, fmt.Errorf("scheme %q", rep.Scheme)
	case rep.FromCache != wantHit:
		return false, fmt.Errorf("from_cache %v, want %v", rep.FromCache, wantHit)
	case (rep.Timing == nil) != wantHit:
		return false, fmt.Errorf("timing present=%v on a from_cache=%v report", rep.Timing != nil, wantHit)
	case rep.TaskSetHash != ts.Hash():
		return false, fmt.Errorf("task_set_hash %s, want %s", rep.TaskSetHash, ts.Hash())
	case rep.Cores != ts.Cores || rep.Heuristic != hydrac.BestFit.String():
		return false, fmt.Errorf("cores %d heuristic %q, want %d best-fit", rep.Cores, rep.Heuristic, ts.Cores)
	case len(rep.RT) != len(ts.RT) || len(rep.Tasks) != len(ts.Security):
		return false, fmt.Errorf("%d RT / %d security verdicts for %d / %d tasks", len(rep.RT), len(rep.Tasks), len(ts.RT), len(ts.Security))
	}
	placed := ts.Clone()
	if err := partition.Assign(placed, partition.BestFit); err != nil {
		return false, err
	}
	for i, a := range rep.RT {
		if a.Name != placed.RT[i].Name || a.Core != placed.RT[i].Core {
			return false, fmt.Errorf("RT %s on core %d, best-fit places %s on %d", a.Name, a.Core, placed.RT[i].Name, placed.RT[i].Core)
		}
	}
	return rep.Schedulable, verifyVerdicts(placed, rep, stride)
}

// verifyVerdicts checks a report's security verdicts (in the set's
// security order) against the oracle on the placed set.
func verifyVerdicts(placed *task.Set, rep *hydrac.Report, stride int) error {
	periods := make([]task.Time, len(rep.Tasks))
	resp := make([]task.Time, len(rep.Tasks))
	for i, v := range rep.Tasks {
		if v.Name != placed.Security[i].Name {
			return fmt.Errorf("verdict %d names %s, want %s", i, v.Name, placed.Security[i].Name)
		}
		if !rep.Schedulable && (v.Period != 0 || v.WCRT != 0) {
			return fmt.Errorf("%s: unschedulable verdict carries period %d wcrt %d", v.Name, v.Period, v.WCRT)
		}
		periods[i], resp[i] = v.Period, v.WCRT
	}
	return oracle.VerifySelection(placed, rep.Schedulable, periods, resp, stride)
}

// parallelCheck runs check(i) for i in [0, n) on two goroutines and
// returns the error of the lowest failing index.
func parallelCheck(n int, check func(i int) error) error {
	const workers = 2
	errs := make([]error, workers)
	at := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := check(i); err != nil {
					errs[w], at[w] = err, i
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var first error
	firstAt := n
	for w, err := range errs {
		if err != nil && at[w] < firstAt {
			first, firstAt = err, at[w]
		}
	}
	return first
}
