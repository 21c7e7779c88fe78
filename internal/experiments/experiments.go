// Package experiments regenerates every figure of the paper's
// evaluation (§5) from this repository's implementations: the rover
// intrusion-detection trials (Figs. 5a, 5b) and the synthetic
// design-space exploration (Figs. 6, 7a, 7b). The same entry points
// back cmd/rover, cmd/sweep and the root-level benchmarks, so a figure
// is always reproduced by exactly one code path.
package experiments

import (
	"fmt"
	"strings"

	"hydrac/internal/baseline"
	"hydrac/internal/core"
	"hydrac/internal/gen"
	"hydrac/internal/metrics"
	"hydrac/internal/sweep"
	"hydrac/internal/task"
)

// SweepConfig parameterises the synthetic experiments.
type SweepConfig struct {
	// Cores is M (the paper evaluates 2 and 4).
	Cores int
	// SetsPerGroup is the number of task sets per utilisation group
	// (paper: 250; benches use fewer).
	SetsPerGroup int
	// Seed makes sweeps reproducible. Every task set is drawn from a
	// private stream derived from (Seed, group, index), so the figures
	// are a pure function of this configuration — independent of
	// Parallel and of execution order.
	Seed int64
	// Parallel is the sweep worker count: 0 uses GOMAXPROCS, 1 forces
	// serial execution. Results are identical at any value (see
	// DESIGN.md for the determinism contract).
	Parallel int
	// Progress, when non-nil, receives (done, total) task-set counts
	// as the sweep advances. Calls are serialised.
	Progress func(done, total int)
}

// engine maps the sweep parameters onto the generic runner.
func (c SweepConfig) engine(gcfg gen.Config) sweep.Config {
	return sweep.Config{
		Groups:   gcfg.Groups,
		PerGroup: c.SetsPerGroup,
		Workers:  c.Parallel,
		Progress: c.Progress,
	}
}

// DefaultSweepConfig returns the paper's configuration for M cores.
func DefaultSweepConfig(cores int) SweepConfig {
	return SweepConfig{Cores: cores, SetsPerGroup: 250, Seed: 2020}
}

func (c SweepConfig) genConfig() gen.Config {
	g := gen.TableThree(c.Cores)
	g.SetsPerGroup = c.SetsPerGroup
	return g
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Group is one utilisation bin of Fig. 6.
type Fig6Group struct {
	// Lo and Hi bound the normalised utilisation of the group.
	Lo, Hi float64
	// Distance is the mean normalised Euclidean distance between the
	// HYDRA-C period vector and the Tmax vector over the group's
	// schedulable sets; larger = security tasks run more frequently.
	Distance metrics.Sample
	// Schedulable counts the sets HYDRA-C accepted; Generated counts
	// the sets drawn (generation failures excluded, as in the paper).
	Schedulable, Generated int
}

// Fig6Result is the full Fig. 6 series for one core count.
type Fig6Result struct {
	Cores  int
	Groups []Fig6Group
}

// Fig6 regenerates the paper's Fig. 6: how far below Tmax the periods
// land per utilisation group. The sweep is sharded across
// cfg.Parallel workers with per-item seeding, so the result is
// identical at any worker count.
func Fig6(cfg SweepConfig) (*Fig6Result, error) {
	gcfg := cfg.genConfig()
	newPartial := func() *Fig6Result {
		out := &Fig6Result{Cores: cfg.Cores, Groups: make([]Fig6Group, gcfg.Groups)}
		for g := range out.Groups {
			out.Groups[g].Lo, out.Groups[g].Hi = gcfg.GroupRange(g)
		}
		return out
	}
	return sweep.Run(cfg.engine(gcfg), newPartial,
		func(p *Fig6Result, it sweep.Item) error {
			grp := &p.Groups[it.Group]
			ts, err := gcfg.GenerateAt(cfg.Seed, it.Group, it.Index)
			if err != nil {
				return nil // no partitionable draw: skipped, as in the paper
			}
			grp.Generated++
			res, err := core.SelectPeriods(ts, core.Options{})
			if err != nil {
				return err
			}
			if !res.Schedulable {
				return nil
			}
			grp.Schedulable++
			grp.Distance.Add(metrics.NormalizedPeriodDistance(res.Periods, maxPeriods(ts)))
			return nil
		},
		func(dst, src *Fig6Result) {
			for g := range dst.Groups {
				d, s := &dst.Groups[g], &src.Groups[g]
				d.Generated += s.Generated
				d.Schedulable += s.Schedulable
				d.Distance.Merge(&s.Distance)
			}
		})
}

// Render prints the Fig. 6 series as the paper's bar values.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — distance from maximum period vs normalised utilisation (%d cores)\n", r.Cores)
	fmt.Fprintf(&b, "%-12s %-10s %-12s %s\n", "util U/M", "sets", "schedulable", "mean distance (±std)")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "[%.2f,%.2f]  %-10d %-12d %.3f ±%.3f\n",
			g.Lo, g.Hi, g.Generated, g.Schedulable, g.Distance.Mean(), g.Distance.Std())
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 7a

// SchemeName identifies one scheme column of Fig. 7a.
type SchemeName string

// The four schemes of Fig. 7a plus the lookahead HYDRA variant kept as
// an ablation column.
const (
	SchemeHydraC         SchemeName = "HYDRA-C"
	SchemeHydra          SchemeName = "HYDRA"
	SchemeGlobalTMax     SchemeName = "GLOBAL-TMax"
	SchemeHydraTMax      SchemeName = "HYDRA-TMax"
	SchemeHydraLookahead SchemeName = "HYDRA-LA"
)

// Fig7aGroup is one utilisation bin with per-scheme acceptance.
type Fig7aGroup struct {
	Lo, Hi     float64
	Acceptance map[SchemeName]*metrics.Acceptance
}

// Fig7aResult is the acceptance-ratio series of Fig. 7a.
type Fig7aResult struct {
	Cores   int
	Schemes []SchemeName
	Groups  []Fig7aGroup
}

// Fig7a regenerates the acceptance-ratio comparison. Draws that cannot
// even partition their RT band count as rejected for every scheme
// (they are unschedulable as legacy systems).
func Fig7a(cfg SweepConfig) (*Fig7aResult, error) {
	gcfg := cfg.genConfig()
	schemes := []SchemeName{SchemeHydraC, SchemeHydra, SchemeGlobalTMax, SchemeHydraTMax, SchemeHydraLookahead}
	newPartial := func() *Fig7aResult {
		out := &Fig7aResult{Cores: cfg.Cores, Schemes: schemes, Groups: make([]Fig7aGroup, gcfg.Groups)}
		for g := range out.Groups {
			grp := &out.Groups[g]
			grp.Lo, grp.Hi = gcfg.GroupRange(g)
			grp.Acceptance = map[SchemeName]*metrics.Acceptance{}
			for _, s := range schemes {
				grp.Acceptance[s] = &metrics.Acceptance{}
			}
		}
		return out
	}
	return sweep.Run(cfg.engine(gcfg), newPartial,
		func(p *Fig7aResult, it sweep.Item) error {
			grp := &p.Groups[it.Group]
			ts, err := gcfg.GenerateAt(cfg.Seed, it.Group, it.Index)
			if err != nil {
				for _, s := range schemes {
					grp.Acceptance[s].Add(false)
				}
				return nil
			}
			cres, err := core.SelectPeriods(ts, core.Options{})
			if err != nil {
				return err
			}
			grp.Acceptance[SchemeHydraC].Add(cres.Schedulable)

			ares, err := baseline.HydraAggressive(ts)
			if err != nil {
				return err
			}
			grp.Acceptance[SchemeHydra].Add(ares.Schedulable)

			gres, err := baseline.GlobalTMax(ts)
			if err != nil {
				return err
			}
			grp.Acceptance[SchemeGlobalTMax].Add(gres.Schedulable)

			tres, err := baseline.HydraTMax(ts)
			if err != nil {
				return err
			}
			grp.Acceptance[SchemeHydraTMax].Add(tres.Schedulable)

			lres, err := baseline.Hydra(ts)
			if err != nil {
				return err
			}
			grp.Acceptance[SchemeHydraLookahead].Add(lres.Schedulable)
			return nil
		},
		func(dst, src *Fig7aResult) {
			for g := range dst.Groups {
				for _, s := range schemes {
					dst.Groups[g].Acceptance[s].Merge(src.Groups[g].Acceptance[s])
				}
			}
		})
}

// Render prints the Fig. 7a acceptance table.
func (r *Fig7aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7a — acceptance ratio (%%) vs normalised utilisation (%d cores)\n", r.Cores)
	fmt.Fprintf(&b, "%-12s", "util U/M")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteString("\n")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "[%.2f,%.2f] ", g.Lo, g.Hi)
		for _, s := range r.Schemes {
			fmt.Fprintf(&b, " %12.1f", g.Acceptance[s].Ratio())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 7b

// Fig7bGroup is one utilisation bin of Fig. 7b.
type Fig7bGroup struct {
	Lo, Hi float64
	// VsHydra is ‖T*_HYDRA-C − T*_HYDRA‖/‖Tmax‖ over the sets both
	// schemes accept (the dashed series of Fig. 7b).
	VsHydra metrics.Sample
	// VsNoOpt is ‖T*_HYDRA-C − Tmax‖/‖Tmax‖ over HYDRA-C-schedulable
	// sets (the dotted series: GLOBAL-TMax / HYDRA-TMax use Tmax).
	VsNoOpt metrics.Sample
	// HydraCShorter / HydraShorter count, among the jointly
	// schedulable sets, whose aggregate period vector sits closer to
	// zero — the directional information Fig. 7b's caption claims.
	HydraCShorter, HydraShorter int
}

// Fig7bResult is the period-vector-difference series of Fig. 7b.
type Fig7bResult struct {
	Cores  int
	Groups []Fig7bGroup
}

// Fig7b regenerates the period-vector comparison of Fig. 7b.
func Fig7b(cfg SweepConfig) (*Fig7bResult, error) {
	gcfg := cfg.genConfig()
	newPartial := func() *Fig7bResult {
		out := &Fig7bResult{Cores: cfg.Cores, Groups: make([]Fig7bGroup, gcfg.Groups)}
		for g := range out.Groups {
			out.Groups[g].Lo, out.Groups[g].Hi = gcfg.GroupRange(g)
		}
		return out
	}
	return sweep.Run(cfg.engine(gcfg), newPartial,
		func(p *Fig7bResult, it sweep.Item) error {
			grp := &p.Groups[it.Group]
			ts, err := gcfg.GenerateAt(cfg.Seed, it.Group, it.Index)
			if err != nil {
				return nil
			}
			cres, err := core.SelectPeriods(ts, core.Options{})
			if err != nil {
				return err
			}
			if !cres.Schedulable {
				return nil
			}
			maxp := maxPeriods(ts)
			grp.VsNoOpt.Add(metrics.NormalizedVectorDistance(cres.Periods, maxp, maxp))

			ares, err := baseline.HydraAggressive(ts)
			if err != nil {
				return err
			}
			if !ares.Schedulable {
				return nil // fewer data points at high utilisation, as the paper notes
			}
			grp.VsHydra.Add(metrics.NormalizedVectorDistance(cres.Periods, ares.Periods, maxp))
			dc := metrics.NormalizedPeriodDistance(cres.Periods, maxp)
			dh := metrics.NormalizedPeriodDistance(ares.Periods, maxp)
			switch {
			case dc > dh+1e-12:
				grp.HydraCShorter++
			case dh > dc+1e-12:
				grp.HydraShorter++
			}
			return nil
		},
		func(dst, src *Fig7bResult) {
			for g := range dst.Groups {
				d, s := &dst.Groups[g], &src.Groups[g]
				d.VsHydra.Merge(&s.VsHydra)
				d.VsNoOpt.Merge(&s.VsNoOpt)
				d.HydraCShorter += s.HydraCShorter
				d.HydraShorter += s.HydraShorter
			}
		})
}

// Render prints the Fig. 7b series.
func (r *Fig7bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7b — normalised period-vector difference (%d cores)\n", r.Cores)
	fmt.Fprintf(&b, "%-12s %-22s %-22s %s\n", "util U/M", "HYDRA-C vs HYDRA", "HYDRA-C vs w/o opt", "shorter-periods count (HC/H)")
	for _, g := range r.Groups {
		vh := "-"
		if g.VsHydra.N() > 0 {
			vh = fmt.Sprintf("%.3f (n=%d)", g.VsHydra.Mean(), g.VsHydra.N())
		}
		vn := "-"
		if g.VsNoOpt.N() > 0 {
			vn = fmt.Sprintf("%.3f (n=%d)", g.VsNoOpt.Mean(), g.VsNoOpt.N())
		}
		fmt.Fprintf(&b, "[%.2f,%.2f]  %-22s %-22s %d/%d\n", g.Lo, g.Hi, vh, vn, g.HydraCShorter, g.HydraShorter)
	}
	return b.String()
}

func maxPeriods(ts *task.Set) []task.Time {
	out := make([]task.Time, len(ts.Security))
	for i, s := range ts.Security {
		out[i] = s.MaxPeriod
	}
	return out
}
