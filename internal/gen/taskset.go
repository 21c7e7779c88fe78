package gen

import (
	"fmt"
	"math"
	"math/rand"

	"hydrac/internal/partition"
	"hydrac/internal/seed"
	"hydrac/internal/task"
)

// Config mirrors Table 3 of the paper. Durations are ticks (ms).
type Config struct {
	// Cores is M.
	Cores int
	// RTTasksMin/Max bound N_R (paper: [3M, 10M]).
	RTTasksMin, RTTasksMax int
	// SecTasksMin/Max bound N_S (paper: [2M, 5M]).
	SecTasksMin, SecTasksMax int
	// RTPeriodMin/Max bound the log-uniform RT period draw
	// (paper: [10, 1000] ms).
	RTPeriodMin, RTPeriodMax task.Time
	// SecMaxPeriodMin/Max bound the log-uniform Tmax draw
	// (paper: [1500, 3000] ms).
	SecMaxPeriodMin, SecMaxPeriodMax task.Time
	// SecurityShare is the fraction of the total minimum utilisation
	// assigned to the security band (paper: at least 30%; the
	// generator uses the share exactly).
	SecurityShare float64
	// Groups is the number of base-utilisation groups (paper: 10):
	// group i covers normalised utilisation ((0.01+0.1i)M, (0.1+0.1i)M].
	Groups int
	// SetsPerGroup is the number of task sets per group (paper: 250).
	SetsPerGroup int
	// Partition chooses the RT allocation heuristic (paper: best-fit).
	Partition partition.Heuristic
	// MaxAttempts bounds the redraws used to find an RT-schedulable
	// set per requested sample before giving up (the paper only
	// considers sets whose RT band partitions successfully).
	MaxAttempts int
	// TicksPerMS scales the millisecond bounds above into integer
	// ticks. A finer resolution keeps integer WCET rounding from
	// distorting the drawn utilisations; 0 means 1 tick per ms.
	TicksPerMS task.Time
	// UtilizationTolerance accepts a draw only if its realised
	// normalised utilisation lands within the group range extended by
	// this slack on both sides (rounding drifts it slightly);
	// 0 means 0.005.
	UtilizationTolerance float64
}

// TableThree returns the paper's exact Table 3 configuration for M
// cores.
func TableThree(cores int) Config {
	return Config{
		Cores:           cores,
		RTTasksMin:      3 * cores,
		RTTasksMax:      10 * cores,
		SecTasksMin:     2 * cores,
		SecTasksMax:     5 * cores,
		RTPeriodMin:     10,
		RTPeriodMax:     1000,
		SecMaxPeriodMin: 1500,
		SecMaxPeriodMax: 3000,
		SecurityShare:   0.30,
		Groups:          10,
		SetsPerGroup:    250,
		Partition:       partition.BestFit,
		MaxAttempts:     400,
		TicksPerMS:      10,
	}
}

// GroupRange returns the normalised-utilisation interval of group i:
// U/M ∈ [0.01+0.1i, 0.1+0.1i].
func (c Config) GroupRange(i int) (lo, hi float64) {
	return 0.01 + 0.1*float64(i), 0.1 + 0.1*float64(i)
}

// Generate draws one task set in utilisation group g. The total
// minimum utilisation U = Σ Cr/Tr + Σ Cs/Tmax is drawn uniformly in
// the group's range (scaled by M), split (1−share)/share between the
// RT and security bands, and divided among tasks with Randfixedsum.
// RT tasks get RM priorities and are partitioned with the configured
// heuristic; draws whose RT band cannot be partitioned (Eq. 1 on every
// core) are rejected and retried, matching the paper's "only
// schedulable task sets" rule. Security tasks get max-period-monotonic
// priorities and no core binding.
//
// The returned error is non-nil only if MaxAttempts consecutive draws
// fail, which happens for the highest utilisation groups where almost
// no set is partitionable — callers typically count that sample as
// "unschedulable for every scheme".
func (c Config) Generate(rng *rand.Rand, g int) (*task.Set, error) {
	if g < 0 || g >= c.Groups {
		return nil, fmt.Errorf("gen: group %d out of range [0,%d)", g, c.Groups)
	}
	lo, hi := c.GroupRange(g)
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		ts, err := c.draw(rng, lo, hi)
		if err != nil {
			lastErr = err
			continue
		}
		return ts, nil
	}
	return nil, fmt.Errorf("gen: no partitionable set in group %d after %d attempts: %w", g, attempts, lastErr)
}

// GenerateAt draws sweep item (g, i) from a private RNG derived from
// (base, g, i) via seed.At. Unlike Generate, whose output depends on
// every draw made before it on the shared stream, GenerateAt is a
// pure function of its arguments — the entry point the parallel
// sweep engine uses so that any execution order yields the same task
// set per item. Redraw attempts consume the item's own stream only.
func (c Config) GenerateAt(base int64, g, i int) (*task.Set, error) {
	return c.Generate(rand.New(rand.NewSource(seed.At(base, g, i))), g)
}

func (c Config) draw(rng *rand.Rand, lo, hi float64) (*task.Set, error) {
	scale := c.TicksPerMS
	if scale <= 0 {
		scale = 1
	}
	tol := c.UtilizationTolerance
	if tol <= 0 {
		tol = 0.005
	}
	m := float64(c.Cores)
	uTotal := (lo + rng.Float64()*(hi-lo)) * m
	uSec := uTotal * c.SecurityShare
	uRT := uTotal - uSec

	nr := c.RTTasksMin + rng.Intn(c.RTTasksMax-c.RTTasksMin+1)
	ns := c.SecTasksMin + rng.Intn(c.SecTasksMax-c.SecTasksMin+1)

	// Per-task utilisation caps: an RT task must fit alone on one core.
	rtU, err := RandFixedSum(rng, nr, uRT, 0.0001, 0.999)
	if err != nil {
		return nil, err
	}
	secU, err := RandFixedSum(rng, ns, uSec, 0.0001, 0.999)
	if err != nil {
		return nil, err
	}

	ts := &task.Set{Cores: c.Cores}
	for i := 0; i < nr; i++ {
		period := LogUniform(rng, c.RTPeriodMin*scale, c.RTPeriodMax*scale)
		wcet := roundWCET(period, rtU[i])
		ts.RT = append(ts.RT, task.RTTask{
			Name:     fmt.Sprintf("rt%02d", i),
			WCET:     wcet,
			Period:   period,
			Deadline: period, // implicit deadlines, as in the paper's experiments
			Core:     -1,
		})
	}
	task.AssignRateMonotonic(ts.RT)

	for i := 0; i < ns; i++ {
		tmax := LogUniform(rng, c.SecMaxPeriodMin*scale, c.SecMaxPeriodMax*scale)
		ts.Security = append(ts.Security, task.SecurityTask{
			Name:      fmt.Sprintf("sec%02d", i),
			WCET:      roundWCET(tmax, secU[i]),
			MaxPeriod: tmax,
			Core:      -1,
		})
	}
	task.AssignMaxPeriodMonotonic(ts.Security)

	// Integer rounding drifts the realised utilisation away from the
	// drawn one; keep only draws that still land in the group.
	if u := ts.NormalizedUtilization(); u < lo-tol || u > hi+tol {
		return nil, fmt.Errorf("realised utilisation %.4f drifted outside group [%.2f, %.2f]", u, lo, hi)
	}

	if err := partition.Assign(ts, c.Partition); err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// roundWCET converts a utilisation share into an integer WCET for the
// given period, clamped to [1, period].
func roundWCET(period task.Time, u float64) task.Time {
	wcet := task.Time(math.Round(float64(period) * u))
	if wcet < 1 {
		wcet = 1
	}
	if wcet > period {
		wcet = period
	}
	return wcet
}
