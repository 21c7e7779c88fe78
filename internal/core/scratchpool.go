package core

import "sync"

// ScratchPool recycles Scratch workspaces across analyses. A Scratch
// is ~10 slices that grow to the analysed set's size; the service
// layers (Analyzer.Analyze, AnalyzeBatch workers, the baselines) would
// otherwise allocate a fresh one per analysis, which at steady state is
// pure garbage — a Reset re-primes every buffer, so a recycled Scratch
// is state-equivalent to a fresh one and results are bit-identical
// either way. The pool is one sync.Pool: a borrower takes whatever
// scratch comes back and its buffers grow on demand, and a scratch
// grown for a one-off huge set ages out under GC pressure, the usual
// sync.Pool contract.
//
// All methods are safe for concurrent use — but the Scratches
// themselves keep their single-goroutine ownership rule: between Get
// and Put exactly one goroutine may touch a Scratch.
type ScratchPool struct {
	pool sync.Pool
}

// NewScratchPool returns an empty pool.
func NewScratchPool() *ScratchPool {
	return &ScratchPool{}
}

// DefaultScratchPool serves the convenience entry points that have no
// longer-lived owner to borrow from (System.ResponseTimes,
// SelectPeriodsCtx, the baselines). Long-lived services may share it
// or hold their own pool.
var DefaultScratchPool = NewScratchPool()

// Get borrows a Scratch. When sys is non-nil the scratch comes back
// primed for it, exactly as NewScratch(sys) would be.
func (p *ScratchPool) Get(sys *System) *Scratch {
	sc, _ := p.pool.Get().(*Scratch)
	if sc == nil {
		sc = NewScratch(nil)
	}
	if sys != nil {
		sc.Reset(sys)
	}
	return sc
}

// Put returns a borrowed Scratch. The caller must not touch sc (or
// any state aliasing its buffers) afterwards. Put(nil) is a no-op so
// deferred returns need no branching.
func (p *ScratchPool) Put(sc *Scratch) {
	if sc == nil {
		return
	}
	// Drop the System so a pooled scratch never pins an analysed
	// set's demand slices beyond the analysis that borrowed it.
	sc.sys = nil
	p.pool.Put(sc)
}
