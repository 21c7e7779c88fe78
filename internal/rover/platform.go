// Package rover reproduces the paper's proof-of-concept platform
// (§5.1): a Waveshare rover driven by a Raspberry Pi 3 with two active
// cores, running two RT tasks (navigation, camera) and two security
// tasks (Tripwire over the image data store, a custom kernel-module
// checker). The physical testbed is substituted by the discrete-event
// scheduler in internal/sim plus the detection substrate in
// internal/ids; this package supplies the measured task parameters,
// the platform constants of Table 2 and the Fig. 5 trial driver.
package rover

import (
	"fmt"
	"strings"

	"hydrac/internal/task"
)

// Platform constants (Table 2). One simulator tick is one
// millisecond; the RPi3 runs pinned at 700 MHz in the paper's setup,
// so one tick corresponds to 700,000 CPU cycles when reporting
// "cycle count" figures as Fig. 5a does.
const (
	// Cores is the number of active cores (maxcpus=2).
	Cores = 2
	// CPUFreqHz is the pinned ARM frequency (force_turbo with
	// arm_freq=700).
	CPUFreqHz = 700_000_000
	// TickMS is the simulator tick in milliseconds.
	TickMS = 1
	// CyclesPerTick converts ticks to ARM cycle-counter (CCNT) units.
	CyclesPerTick = CPUFreqHz / 1000 * TickMS
)

// Task parameters measured on the testbed (§5.1.2), in ms.
const (
	NavWCET, NavPeriod  = 240, 500
	CamWCET, CamPeriod  = 1120, 5000
	TripwireWCET        = 5342
	KmodWCET            = 223
	SecurityMaxPeriod   = 10000
	ObservationWindowMS = 45000 // the 45 s perf observation window of Fig. 5b
)

// TaskSet returns the rover's task set: navigation on core 0, camera
// on core 1 (the taskset(1) partition of the testbed), and the two
// security tasks unbound, with the kernel-module checker at higher
// security priority (shorter job, tighter responsiveness need).
func TaskSet() *task.Set {
	return &task.Set{
		Cores: Cores,
		RT: []task.RTTask{
			{Name: "navigation", WCET: NavWCET, Period: NavPeriod, Deadline: NavPeriod, Core: 0, Priority: 0},
			{Name: "camera", WCET: CamWCET, Period: CamPeriod, Deadline: CamPeriod, Core: 1, Priority: 1},
		},
		Security: []task.SecurityTask{
			{Name: "tripwire", WCET: TripwireWCET, MaxPeriod: SecurityMaxPeriod, Priority: 0, Core: -1},
			{Name: "kmodcheck", WCET: KmodWCET, MaxPeriod: SecurityMaxPeriod, Priority: 1, Core: -1},
		},
	}
}

// Cycles converts a tick duration into ARM cycle-counter units, the
// unit Fig. 5a reports detection times in.
func Cycles(t task.Time) float64 { return float64(t) * CyclesPerTick }

// TableTwo renders the evaluation-platform summary (Table 2) for the
// simulated substitute, marking the artifacts this reproduction
// replaces.
func TableTwo() string {
	rows := [][2]string{
		{"Platform", "simulated Broadcom BCM2837 @ 700 MHz (discrete-event)"},
		{"CPU", "2 × identical cores (ARM Cortex-A53 stand-in)"},
		{"Scheduler", "partitioned fixed-priority preemptive + migrating security band"},
		{"RT tasks", fmt.Sprintf("navigation (%d, %d) ms; camera (%d, %d) ms", NavWCET, NavPeriod, CamWCET, CamPeriod)},
		{"Security tasks", fmt.Sprintf("tripwire C=%d ms; kmodcheck C=%d ms; Tmax=%d ms", TripwireWCET, KmodWCET, SecurityMaxPeriod)},
		{"WCET measurement", "exact (simulator ticks; 1 tick = 1 ms = 700k cycles)"},
		{"Task partition", "static core binding (taskset equivalent)"},
		{"Observation window", fmt.Sprintf("%d ms", ObservationWindowMS)},
	}
	var b strings.Builder
	b.WriteString("Table 2: Summary of the (simulated) evaluation platform\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-20s %s\n", r[0], r[1])
	}
	return b.String()
}
