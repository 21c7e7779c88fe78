package core

import (
	"fmt"
	"sort"
	"strings"

	"hydrac/internal/task"
)

// Diagnostics: a per-task breakdown of where the interference in the
// WCRT fixed point comes from. This is the explanation a designer
// needs when a period lands far from Tmax (or the set is rejected):
// which core's RT tasks, and which higher-priority monitors, eat the
// budget. cmd/hydrac exposes it behind `analyze -explain`.

// InterferenceTerm is one contributor to Ω at the converged window.
type InterferenceTerm struct {
	// Source names the contributor: "core 3 RT band" or a security
	// task name.
	Source string
	// Workload is the raw workload bound (Eq. 2/4) at the fixed point.
	Workload task.Time
	// Interference is the clamped contribution to Ω (Eq. 3/5).
	Interference task.Time
	// CarryIn reports whether the dominance step charged the carry-in
	// bound for this (security-task) source.
	CarryIn bool
}

// Diagnosis explains one security task's converged response time.
type Diagnosis struct {
	Task string
	// Resp is the WCRT; Schedulable is false when the fixed point
	// diverged past Tmax (Resp is then task.Infinity).
	Resp        task.Time
	Schedulable bool
	// Omega is the total interference at the fixed point and Terms its
	// breakdown, largest contribution first.
	Omega task.Time
	Terms []InterferenceTerm
}

// Diagnose recomputes the WCRT of every security task under the given
// periods (ts.Security order; pass the periods from SelectPeriods, or
// Tmax values) and returns the interference breakdown at each task's
// fixed point.
func Diagnose(ts *task.Set, periods []task.Time) ([]Diagnosis, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(periods) != len(ts.Security) {
		return nil, fmt.Errorf("core: %d periods for %d security tasks", len(periods), len(ts.Security))
	}
	sys := NewSystem(ts)
	sec := ts.SecurityByPriority()
	ordered := make([]task.Time, len(sec))
	for i, s := range sec {
		ordered[i] = periods[indexByName(ts.Security, s.Name)]
	}
	resp := sys.ResponseTimes(sec, ordered)

	out := make([]Diagnosis, len(ts.Security))
	hp := make([]Interferer, 0, len(sec))
	for i, s := range sec {
		d := Diagnosis{Task: s.Name, Resp: resp[i], Schedulable: resp[i] <= s.MaxPeriod}
		x := resp[i]
		if !d.Schedulable {
			x = s.MaxPeriod // explain the interference at the bound instead
		}
		d.Omega, d.Terms = sys.breakdown(x, s.WCET, hp)
		sort.Slice(d.Terms, func(a, b int) bool { return d.Terms[a].Interference > d.Terms[b].Interference })
		out[indexByName(ts.Security, s.Name)] = d

		r := resp[i]
		if r > s.MaxPeriod {
			r = ordered[i]
		}
		hp = append(hp, Interferer{WCET: s.WCET, Period: ordered[i], Resp: r})
	}
	return out, nil
}

// breakdown evaluates Eq. 6 at window x and records each term.
func (sys *System) breakdown(x, cs task.Time, hp []Interferer) (task.Time, []InterferenceTerm) {
	var terms []InterferenceTerm
	var total task.Time
	for m, demands := range sys.RTCores {
		var w task.Time
		for _, d := range demands {
			w += workloadNC(x, d.WCET, d.Period)
		}
		i := clampInterference(w, x, cs)
		total += i
		if len(demands) > 0 {
			terms = append(terms, InterferenceTerm{
				Source: fmt.Sprintf("core %d RT band", m), Workload: w, Interference: i,
			})
		}
	}
	type diff struct {
		idx  int
		gain task.Time
	}
	var diffs []diff
	base := make([]task.Time, len(hp))
	for i, h := range hp {
		wnc := workloadNC(x, h.WCET, h.Period)
		inc := clampInterference(wnc, x, cs)
		ici := clampInterference(workloadCI(x, h.WCET, h.Period, h.Resp), x, cs)
		base[i] = inc
		total += inc
		if g := ici - inc; g > 0 {
			diffs = append(diffs, diff{idx: i, gain: g})
		}
	}
	carried := map[int]task.Time{}
	sort.Slice(diffs, func(a, b int) bool { return diffs[a].gain > diffs[b].gain })
	for k := 0; k < len(diffs) && k < sys.M-1; k++ {
		total += diffs[k].gain
		carried[diffs[k].idx] = diffs[k].gain
	}
	for i, h := range hp {
		gain, ci := carried[i]
		terms = append(terms, InterferenceTerm{
			Source:       fmt.Sprintf("security hp#%d (C=%d, T=%d)", i, h.WCET, h.Period),
			Workload:     workloadNC(x, h.WCET, h.Period),
			Interference: base[i] + gain,
			CarryIn:      ci,
		})
	}
	return total, terms
}

// Render formats a diagnosis for terminal output.
func (d Diagnosis) Render() string {
	var b strings.Builder
	verdict := "schedulable"
	if !d.Schedulable {
		verdict = "UNSCHEDULABLE"
	}
	fmt.Fprintf(&b, "%s: R=%s, Ω=%d (%s)\n", d.Task, fmtTime(d.Resp), d.Omega, verdict)
	for _, t := range d.Terms {
		ci := ""
		if t.CarryIn {
			ci = " +carry-in"
		}
		fmt.Fprintf(&b, "  %-28s workload %-8d interference %-8d%s\n", t.Source, t.Workload, t.Interference, ci)
	}
	return b.String()
}

func fmtTime(t task.Time) string {
	if t >= task.Infinity {
		return "∞"
	}
	return fmt.Sprintf("%d", t)
}
