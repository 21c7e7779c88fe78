package task

import (
	"encoding/json"
	"fmt"
	"io"
)

// Delta is one admission request against a live task set: tasks to
// remove (by name) and tasks to add, applied in that order so a
// replace is expressed as a remove and an add of the same name in one
// delta. Deltas are the unit of incremental admission
// (hydrac.Session): a session applies a sequence of deltas and
// re-analyses only what each delta can affect.
//
// Unlike whole-set files, delta tasks never receive defaulted
// priorities: rate-monotonic or max-period-monotonic renumbering is a
// whole-set operation and would silently reorder the tasks already
// admitted. Every added task must carry its priority explicitly.
type Delta struct {
	// Remove lists task names (RT or security) to drop first.
	Remove []string
	// AddRT lists real-time tasks to add. Core -1 asks the session to
	// place the task with its partitioning heuristic.
	AddRT []RTTask
	// AddSecurity lists security tasks to add. Priorities must be
	// distinct from every retained security task.
	AddSecurity []SecurityTask
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return len(d.Remove) == 0 && len(d.AddRT) == 0 && len(d.AddSecurity) == 0
}

// RemovalOnly reports whether the delta only drops tasks. Removals
// never make a schedulable set unschedulable, so a session commits
// them unconditionally.
func (d *Delta) RemovalOnly() bool {
	return len(d.Remove) > 0 && len(d.AddRT) == 0 && len(d.AddSecurity) == 0
}

// deltaFormat is the wire schema of one delta, reusing the task
// records of the file format.
type deltaFormat struct {
	Remove      []string    `json:"remove,omitempty"`
	AddRT       []rtRecord  `json:"add_rt,omitempty"`
	AddSecurity []secRecord `json:"add_security,omitempty"`
}

// DecodeDelta reads one delta from JSON. Deadlines default to the
// period and cores to -1 as in the file format, but priorities are
// required (see Delta).
func DecodeDelta(r io.Reader) (*Delta, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f deltaFormat
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("decoding delta: %w", err)
	}
	return deltaFromFormat(&f)
}

// DecodeDeltaLog reads a delta log: a JSON array of delta objects,
// applied in order. It is the format cmd/hydrac's admit subcommand
// replays.
func DecodeDeltaLog(r io.Reader) ([]Delta, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fs []deltaFormat
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("decoding delta log: %w", err)
	}
	out := make([]Delta, 0, len(fs))
	for i := range fs {
		d, err := deltaFromFormat(&fs[i])
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
		out = append(out, *d)
	}
	return out, nil
}

func deltaFromFormat(f *deltaFormat) (*Delta, error) {
	d := &Delta{Remove: append([]string(nil), f.Remove...)}
	for _, rec := range f.AddRT {
		if rec.Priority == nil {
			return nil, fmt.Errorf("RT task %s: deltas require an explicit priority (defaulting would renumber the admitted set)", rec.Name)
		}
		t := RTTask{Name: rec.Name, WCET: rec.WCET, Period: rec.Period, Deadline: rec.Deadline, Core: -1, Priority: *rec.Priority}
		if rec.Core != nil {
			t.Core = *rec.Core
		}
		if t.Deadline == 0 {
			t.Deadline = t.Period
		}
		d.AddRT = append(d.AddRT, t)
	}
	for _, rec := range f.AddSecurity {
		if rec.Priority == nil {
			return nil, fmt.Errorf("security task %s: deltas require an explicit priority (defaulting would renumber the admitted set)", rec.Name)
		}
		s := SecurityTask{Name: rec.Name, WCET: rec.WCET, MaxPeriod: rec.MaxPeriod, Period: rec.Period, Core: -1, Priority: *rec.Priority}
		if rec.Core != nil {
			s.Core = *rec.Core
		}
		d.AddSecurity = append(d.AddSecurity, s)
	}
	return d, nil
}

func deltaToFormat(d *Delta) deltaFormat {
	f := deltaFormat{Remove: append([]string(nil), d.Remove...)}
	for _, t := range d.AddRT {
		p, c := t.Priority, t.Core
		f.AddRT = append(f.AddRT, rtRecord{Name: t.Name, WCET: t.WCET, Period: t.Period, Deadline: t.Deadline, Core: &c, Priority: &p})
	}
	for _, s := range d.AddSecurity {
		p, c := s.Priority, s.Core
		rec := secRecord{Name: s.Name, WCET: s.WCET, MaxPeriod: s.MaxPeriod, Period: s.Period, Priority: &p}
		if c >= 0 {
			rec.Core = &c
		}
		f.AddSecurity = append(f.AddSecurity, rec)
	}
	return f
}

// EncodeDelta writes one delta as indented JSON.
func EncodeDelta(w io.Writer, d *Delta) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(deltaToFormat(d))
}

// EncodeDeltaLog writes a delta sequence in the format DecodeDeltaLog
// reads.
func EncodeDeltaLog(w io.Writer, ds []Delta) error {
	fs := make([]deltaFormat, 0, len(ds))
	for i := range ds {
		fs = append(fs, deltaToFormat(&ds[i]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}
