package rover

import (
	"fmt"
	"math/rand"

	"hydrac/internal/baseline"
	"hydrac/internal/core"
	"hydrac/internal/ids"
	"hydrac/internal/metrics"
	"hydrac/internal/seed"
	"hydrac/internal/sim"
	"hydrac/internal/sweep"
	"hydrac/internal/task"
)

// TrialConfig drives the Fig. 5 experiments.
type TrialConfig struct {
	// Trials is the number of attack trials (paper: 35).
	Trials int
	// Seed makes runs reproducible. Each trial's attack scenario is
	// drawn from a private stream derived from (Seed, trial), so
	// results are independent of Parallel.
	Seed int64
	// Objects is the number of files in the protected image store
	// (each Tripwire job sweeps all of them).
	Objects int
	// DetectionHorizon bounds each trial's simulation, ms.
	DetectionHorizon task.Time
	// AttackWindow bounds the random attack instant, ms.
	AttackWindow task.Time
	// Parallel is the trial worker count: 0 uses GOMAXPROCS, 1 forces
	// serial execution. Results are identical at any value.
	Parallel int
	// Progress, when non-nil, receives (done, total) trial counts as
	// the run advances. Calls are serialised.
	Progress func(done, total int)
}

// DefaultTrialConfig mirrors the paper: 35 trials, attacks at random
// points early in the run, a 64-image data store.
func DefaultTrialConfig() TrialConfig {
	return TrialConfig{
		Trials:           35,
		Seed:             1,
		Objects:          64,
		DetectionHorizon: 90_000,
		AttackWindow:     20_000,
	}
}

// SchemeResult aggregates one scheme's trials.
type SchemeResult struct {
	// Scheme is "HYDRA-C" or "HYDRA".
	Scheme string
	// TripwirePeriod and KmodPeriod are the periods the scheme chose.
	TripwirePeriod, KmodPeriod task.Time
	// DetectionMS collects per-trial detection latencies (both attack
	// kinds pooled, as Fig. 5a's single bar per scheme does).
	DetectionMS metrics.Sample
	// TripwireMS and KmodMS split the latency by attack kind.
	TripwireMS, KmodMS metrics.Sample
	// ContextSwitches collects per-trial context-switch counts over
	// the 45 s observation window (Fig. 5b).
	ContextSwitches metrics.Sample
	// Undetected counts attacks not caught within the horizon.
	Undetected int
}

// MeanDetectionCycles reports the Fig. 5a quantity: mean detection
// time in ARM cycle-counter units.
func (r *SchemeResult) MeanDetectionCycles() float64 {
	return Cycles(1) * r.DetectionMS.Mean()
}

// RunTrials performs the Fig. 5 comparison: the same attack schedule
// is replayed against HYDRA-C (periods from Algorithm 1, migrating
// security band) and HYDRA (greedy partitioned placement, pinned
// band), measuring detection latency and context switches.
func RunTrials(cfg TrialConfig) (hydraC, hydra *SchemeResult, err error) {
	base := TaskSet()

	cres, err := core.SelectPeriods(base, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("rover: HYDRA-C period selection: %w", err)
	}
	if !cres.Schedulable {
		return nil, nil, fmt.Errorf("rover: HYDRA-C reports the rover set unschedulable")
	}
	cSet := core.Apply(base, cres)

	// The paper's verbatim HYDRA description: greedy best-response
	// placement with each period pinned to its WCRT on arrival.
	hres, err := baseline.HydraAggressive(base)
	if err != nil {
		return nil, nil, fmt.Errorf("rover: HYDRA baseline: %w", err)
	}
	if !hres.Schedulable {
		return nil, nil, fmt.Errorf("rover: HYDRA reports the rover set unschedulable")
	}
	hSet := baseline.ApplyPartitioned(base, hres)

	return runTrialSweep(cfg, trialStreamFull, base,
		schemePlan{"HYDRA-C", cSet, sim.SemiPartitioned},
		schemePlan{"HYDRA", hSet, sim.FullyPartitioned})
}

// Stream discriminators for seed.At: the full-pipeline and controlled
// comparisons must draw disjoint attack scenarios from the same base
// seed.
const (
	trialStreamFull = iota
	trialStreamControlled
)

// schemePlan is one side of a trial comparison: a configured task set
// under a runtime policy, reported under Name.
type schemePlan struct {
	Name   string
	Set    *task.Set
	Policy sim.Policy
}

// trialPair accumulates both schemes' results over a shard of trials.
type trialPair struct {
	a, b *SchemeResult
}

// runTrialSweep replays the same per-trial attack scenario against
// both schemes, sharding trials across cfg.Parallel workers. Each
// trial draws its scenario from seed.At(cfg.Seed, stream, trial), and
// shard partials merge in trial order, so results are identical at
// any worker count. A config with any count below 1 is rejected.
func runTrialSweep(cfg TrialConfig, stream int, base *task.Set, a, b schemePlan) (*SchemeResult, *SchemeResult, error) {
	if cfg.Trials < 1 || cfg.Objects < 1 || cfg.AttackWindow < 1 || cfg.DetectionHorizon < 1 {
		return nil, nil, fmt.Errorf("rover: trials %d, objects %d, attack window %d and detection horizon %d must each be at least 1",
			cfg.Trials, cfg.Objects, cfg.AttackWindow, cfg.DetectionHorizon)
	}
	res, err := sweep.Run(
		sweep.Config{Groups: 1, PerGroup: cfg.Trials, Workers: cfg.Parallel, Progress: cfg.Progress},
		func() *trialPair {
			return &trialPair{newSchemeResult(a.Name, a.Set), newSchemeResult(b.Name, b.Set)}
		},
		func(p *trialPair, it sweep.Item) error {
			// One shared attack scenario per trial.
			rng := rand.New(rand.NewSource(seed.At(cfg.Seed, stream, it.Index)))
			twAttack := task.Time(rng.Int63n(int64(cfg.AttackWindow)))
			kmAttack := task.Time(rng.Int63n(int64(cfg.AttackWindow)))
			victim := rng.Intn(cfg.Objects)
			offsets := randomOffsets(rng, base)

			if err := runTrial(p.a, a.Set, a.Policy, cfg, offsets, twAttack, kmAttack, victim); err != nil {
				return err
			}
			return runTrial(p.b, b.Set, b.Policy, cfg, offsets, twAttack, kmAttack, victim)
		},
		func(dst, src *trialPair) {
			dst.a.merge(src.a)
			dst.b.merge(src.b)
		})
	if err != nil {
		return nil, nil, err
	}
	return res.a, res.b, nil
}

// merge folds another shard's trials into r, preserving trial order.
func (r *SchemeResult) merge(o *SchemeResult) {
	r.DetectionMS.Merge(&o.DetectionMS)
	r.TripwireMS.Merge(&o.TripwireMS)
	r.KmodMS.Merge(&o.KmodMS)
	r.ContextSwitches.Merge(&o.ContextSwitches)
	r.Undetected += o.Undetected
}

func newSchemeResult(name string, ts *task.Set) *SchemeResult {
	r := &SchemeResult{Scheme: name}
	for _, s := range ts.Security {
		switch s.Name {
		case "tripwire":
			r.TripwirePeriod = s.Period
		case "kmodcheck":
			r.KmodPeriod = s.Period
		}
	}
	return r
}

// randomOffsets jitters every task's first release within one period,
// standing in for the arbitrary phase at which the paper's trials
// launched attacks against the running rover.
func randomOffsets(rng *rand.Rand, ts *task.Set) map[string]task.Time {
	off := map[string]task.Time{}
	for _, t := range ts.RT {
		off[t.Name] = task.Time(rng.Int63n(int64(t.Period)))
	}
	// Security offsets are drawn against Tmax so both schemes see the
	// same jitter despite different selected periods.
	for _, s := range ts.Security {
		off[s.Name] = task.Time(rng.Int63n(int64(s.MaxPeriod)))
	}
	return off
}

func runTrial(out *SchemeResult, ts *task.Set, policy sim.Policy, cfg TrialConfig,
	offsets map[string]task.Time, twAttack, kmAttack task.Time, victim int) error {

	// Clamp security offsets to the scheme's actual periods.
	off := map[string]task.Time{}
	for _, t := range ts.RT {
		off[t.Name] = offsets[t.Name]
	}
	for _, s := range ts.Security {
		off[s.Name] = offsets[s.Name] % s.Period
	}

	res, err := sim.Run(ts, sim.Config{
		Policy: policy, Horizon: cfg.DetectionHorizon,
		Offsets: off, RecordIntervals: true,
	})
	if err != nil {
		return fmt.Errorf("rover: %s simulation: %w", out.Scheme, err)
	}
	if res.RTDeadlineMisses != 0 {
		return fmt.Errorf("rover: %s: RT deadline misses in an accepted configuration", out.Scheme)
	}

	tw, err := ids.DetectionTime(res.JobsOf("tripwire"),
		ids.ScanModel{WCET: TripwireWCET, Objects: cfg.Objects}, twAttack, victim)
	if err != nil {
		return fmt.Errorf("rover: %s tripwire detection: %w", out.Scheme, err)
	}
	km, err := ids.DetectionTime(res.JobsOf("kmodcheck"),
		ids.ScanModel{WCET: KmodWCET, Objects: 1}, kmAttack, 0)
	if err != nil {
		return fmt.Errorf("rover: %s kmodcheck detection: %w", out.Scheme, err)
	}
	for _, d := range []struct {
		det    ids.Detection
		sample *metrics.Sample
	}{{tw, &out.TripwireMS}, {km, &out.KmodMS}} {
		if !d.det.Detected {
			out.Undetected++
			continue
		}
		d.sample.Add(float64(d.det.Latency))
		out.DetectionMS.Add(float64(d.det.Latency))
	}

	// Fig. 5b: context switches over the 45 s perf window.
	csRun, err := sim.Run(ts, sim.Config{Policy: policy, Horizon: ObservationWindowMS, Offsets: off})
	if err != nil {
		return fmt.Errorf("rover: %s context-switch simulation: %w", out.Scheme, err)
	}
	out.ContextSwitches.Add(float64(csRun.ContextSwitches))
	return nil
}

// RunControlled performs the scheduler-isolated variant of the Fig. 5
// comparison: both policies run the *same* task set with the *same*
// period vector (HYDRA's assignment), so the only difference is
// whether the security band may migrate. This separates the paper's
// two mechanisms — period adaptation (compared in RunTrials) and
// continuous cross-core execution (compared here). Returned results
// are labelled "pinned" and "migrating".
func RunControlled(cfg TrialConfig) (migrating, pinned *SchemeResult, err error) {
	base := TaskSet()
	hres, err := baseline.HydraAggressive(base)
	if err != nil {
		return nil, nil, fmt.Errorf("rover: HYDRA baseline: %w", err)
	}
	if !hres.Schedulable {
		return nil, nil, fmt.Errorf("rover: HYDRA cannot configure the rover set")
	}
	ts := baseline.ApplyPartitioned(base, hres)

	return runTrialSweep(cfg, trialStreamControlled, base,
		schemePlan{"migrating", ts, sim.SemiPartitioned},
		schemePlan{"pinned", ts, sim.FullyPartitioned})
}
