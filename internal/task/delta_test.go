package task

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestDeltaJSONRoundTrip(t *testing.T) {
	d := Delta{
		Remove: []string{"old_monitor"},
		AddRT: []RTTask{
			{Name: "rtx", WCET: 2, Period: 20, Deadline: 18, Core: 1, Priority: 7},
			{Name: "rty", WCET: 1, Period: 40, Deadline: 40, Core: -1, Priority: 8},
		},
		AddSecurity: []SecurityTask{
			{Name: "scan", WCET: 3, MaxPeriod: 300, Core: -1, Priority: 4},
		},
	}
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, &d); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, d) {
		t.Fatalf("round trip changed the delta:\n got %+v\nwant %+v", *got, d)
	}
}

func TestDeltaLogRoundTrip(t *testing.T) {
	ds := []Delta{
		{AddSecurity: []SecurityTask{{Name: "a", WCET: 1, MaxPeriod: 100, Core: -1, Priority: 0}}},
		{Remove: []string{"a"}},
	}
	var buf bytes.Buffer
	if err := EncodeDeltaLog(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDeltaLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("round trip changed the log:\n got %+v\nwant %+v", got, ds)
	}
}

func TestDecodeDeltaRequiresExplicitPriorities(t *testing.T) {
	for _, in := range []string{
		`{"add_rt": [{"name": "x", "wcet": 1, "period": 10}]}`,
		`{"add_security": [{"name": "y", "wcet": 1, "max_period": 100}]}`,
	} {
		if _, err := DecodeDelta(strings.NewReader(in)); err == nil {
			t.Errorf("decoded %s without an explicit priority", in)
		} else if !strings.Contains(err.Error(), "priority") {
			t.Errorf("error %q does not mention the missing priority", err)
		}
	}
}

func TestDecodeDeltaDefaults(t *testing.T) {
	in := `{"add_rt": [{"name": "x", "wcet": 1, "period": 10, "priority": 3}]}`
	d, err := DecodeDelta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.AddRT[0].Deadline != 10 {
		t.Errorf("deadline = %d, want the period 10", d.AddRT[0].Deadline)
	}
	if d.AddRT[0].Core != -1 {
		t.Errorf("core = %d, want -1 (engine places it)", d.AddRT[0].Core)
	}
}

func TestDecodeDeltaRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeDelta(strings.NewReader(`{"add": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDeltaPredicates(t *testing.T) {
	if !(&Delta{}).Empty() {
		t.Error("zero delta not Empty")
	}
	rm := &Delta{Remove: []string{"a"}}
	if !rm.RemovalOnly() || rm.Empty() {
		t.Error("pure removal misclassified")
	}
	add := &Delta{AddSecurity: []SecurityTask{{Name: "s"}}, Remove: []string{"a"}}
	if add.RemovalOnly() {
		t.Error("delta with adds classified as removal-only")
	}
}
