package core

import (
	"math/rand"
	"sync"
	"testing"

	"hydrac/internal/task"
)

// A pooled, heavily reused scratch must compute exactly what a fresh
// one computes, across systems of different shapes interleaved in one
// pool — the bit-identity contract the service layers rely on.
func TestScratchPoolReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := NewScratchPool()
	for trial := 0; trial < 500; trial++ {
		sys, hp, cs := randKernelCase(rng)
		limit := cs + rng.Int63n(2000)
		wantR, wantOK := NewScratch(sys).MigratingWCRT(cs, hp, limit)
		sc := pool.Get(sys)
		gotR, gotOK := sc.MigratingWCRT(cs, hp, limit)
		pool.Put(sc)
		if gotR != wantR || gotOK != wantOK {
			t.Fatalf("trial %d: pooled scratch (%d,%v) != fresh scratch (%d,%v)",
				trial, gotR, gotOK, wantR, wantOK)
		}
	}
}

// Put must drop the System reference so pooled scratches never pin an
// analysed set's demand slices.
func TestScratchPoolPutDropsSystem(t *testing.T) {
	pool := NewScratchPool()
	sys := &System{M: 2, RTCores: [][]Demand{{{WCET: 1, Period: 10}}, nil}}
	sc := pool.Get(sys)
	if sc.sys != sys {
		t.Fatal("Get(sys) did not prime the scratch")
	}
	pool.Put(sc)
	if sc.sys != nil {
		t.Fatal("Put left the System pinned")
	}
	pool.Put(nil) // must not panic
}

// The pool must be safe under concurrent Get/Put with correct results
// per goroutine (run with -race).
func TestScratchPoolConcurrent(t *testing.T) {
	pool := NewScratchPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for trial := 0; trial < 100; trial++ {
				sys, hp, cs := randKernelCase(rng)
				limit := cs + rng.Int63n(1500)
				sc := pool.Get(sys)
				gotR, gotOK := sc.MigratingWCRT(cs, hp, limit)
				pool.Put(sc)
				wantR, wantOK := naiveMigratingWCRT(sys, cs, hp, limit)
				if gotR != wantR || gotOK != wantOK {
					t.Errorf("goroutine %d trial %d: pooled (%d,%v) != naive (%d,%v)",
						g, trial, gotR, gotOK, wantR, wantOK)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// SelectPeriodsCtxWith on a pooled scratch must agree with the
// convenience entry point across random valid sets.
func TestSelectPeriodsWithPooledScratch(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "a", WCET: 2, Period: 10, Deadline: 10, Core: 0, Priority: 0},
			{Name: "b", WCET: 5, Period: 40, Deadline: 40, Core: 1, Priority: 1},
		},
		Security: []task.SecurityTask{
			{Name: "s0", WCET: 3, MaxPeriod: 300, Priority: 0, Core: -1},
			{Name: "s1", WCET: 4, MaxPeriod: 400, Priority: 1, Core: -1},
		},
	}
	want, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewScratchPool()
	for trial := 0; trial < 10; trial++ {
		sc := pool.Get(nil)
		got, err := SelectPeriodsCtxWith(t.Context(), ts, sc)
		pool.Put(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Schedulable != want.Schedulable {
			t.Fatalf("trial %d: schedulable drifted", trial)
		}
		for i := range want.Periods {
			if got.Periods[i] != want.Periods[i] || got.Resp[i] != want.Resp[i] {
				t.Fatalf("trial %d task %d: (%d,%d) != (%d,%d)", trial, i,
					got.Periods[i], got.Resp[i], want.Periods[i], want.Resp[i])
			}
		}
	}
}
