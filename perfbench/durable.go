package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"hydrac"
	"hydrac/internal/faultfs"
	"hydrac/internal/store"
	"hydrac/internal/task"
)

// admit-durable: two callers each own half of a fixed set of durable
// sessions and cycle every session through add mon1, add mon2, add
// mon3, remove all three. Every commit is appended to the session's
// WAL and fsynced before it is acknowledged. Between rounds hydrad is
// restarted on its data dir, and the next round runs on the recovered
// store.
const (
	// durableOpsPerSecond sizes the op count: about what two callers
	// complete per second on a 2-vCPU x86 machine with an ext4 disk.
	durableOpsPerSecond = 400
	durableSessions     = 8
	durableCallers      = 2
	// durableLead is how many commits each session's set-up makes:
	// seven whole admit cycles, then mon1 and mon2 again. A round is one
	// block of CompactEvery commits per session, so at every round
	// boundary each session has compacted once more, holds the base
	// plus mon1 and mon2, and has a WAL tail of durableLead records:
	// every restart recovers the same state through the same work. The
	// tail is long enough that replaying it, not file I/O, dominates a
	// restart (about 0.8 s for the 8 sessions).
	durableLead = 7*(monitors+1) + 2
)

// durable is one durable hydrad: its service, data dir and sessions.
type durable struct {
	*service
	dir   string
	ids   []string
	admit []string // POST path per session
	get   []string // GET path per session
}

// blockPerCaller is one round's op count per caller: a block of
// CompactEvery commits on each of the caller's sessions.
const blockPerCaller = hydradCompactEvery * durableSessions / durableCallers

// blocks is the window's round count: as many blocks as two callers
// run in about -seconds, at least two, so every session compacts at
// least twice and the store restarts at least twice.
func (b *bench) blocks() int {
	return max(2, (b.seconds*durableOpsPerSecond/durableSessions+hydradCompactEvery/2)/hydradCompactEvery)
}

// leadStep is the cycle step of a session's k-th commit, counting the
// set-up's durableLead commits first.
func leadStep(k int) int { return k % (monitors + 1) }

func storeOptions(fs faultfs.FS) store.Options {
	return store.Options{MaxLive: hydradSessions, CompactEvery: hydradCompactEvery, FS: fs}
}

// openDurable builds a store over dir, which must not exist yet,
// creates every session over POST /v1/session and makes each one's
// durableLead set-up commits.
func openDurable(dir string, sessions []sessionInput, fs faultfs.FS) (*durable, error) {
	a, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, a, storeOptions(fs))
	if err != nil {
		return nil, err
	}
	d := &durable{service: newService(st, a), dir: dir}
	c := newCaller(0)
	for i, s := range sessions {
		c.do(d.h, http.MethodPost, "/v1/session", s.Base)
		var created struct {
			SessionID string `json:"session_id"`
		}
		if c.w.status != http.StatusOK {
			d.close()
			return nil, fmt.Errorf("creating session %d answered %d: %s", i, c.w.status, c.w.body())
		}
		if err := json.Unmarshal(c.w.body(), &created); err != nil || created.SessionID == "" {
			d.close()
			return nil, fmt.Errorf("session create response carries no session_id: %s", c.w.body())
		}
		d.ids = append(d.ids, created.SessionID)
		d.admit = append(d.admit, "/v1/session/"+created.SessionID+"/admit")
		d.get = append(d.get, "/v1/session/"+created.SessionID)
	}
	for k := 0; k < durableLead; k++ {
		for i, s := range sessions {
			c.do(d.h, http.MethodPost, d.admit[i], s.Deltas[leadStep(k)])
			if err := admitted(&c.w); err != nil {
				d.close()
				return nil, fmt.Errorf("set-up cycle of session %d: %w", i, err)
			}
		}
	}
	return d, nil
}

// admitted checks an admit response: 200 and a committed delta.
func admitted(w *respWriter) error {
	if w.status != http.StatusOK {
		return fmt.Errorf("admit answered %d: %s", w.status, w.body())
	}
	if v := w.h["X-Hydra-Admitted"]; len(v) != 1 || v[0] != "true" {
		return fmt.Errorf("admit answered X-Hydra-Admitted %q", v)
	}
	return nil
}

// owned lists each caller's sessions. Sessions come cheapest stratum
// first, so callers take them in snake order (0 1 1 0 0 1 1 0) and both
// carry the same share of the work: a closed loop with a fixed op
// count per caller would otherwise leave the lighter caller idle at
// the end of the window.
var owned = func() [durableCallers][]int {
	var o [durableCallers][]int
	for s := 0; s < durableSessions; s++ {
		c := s % 2
		if (s/2)%2 == 1 {
			c = 1 - c
		}
		o[c] = append(o[c], s)
	}
	return o
}()

// opOf maps a caller's i-th op to its session and cycle step: each
// caller round-robins over its own sessions.
func opOf(c, i int) (session, step int) {
	own := owned[c]
	return own[i%len(own)], leadStep(durableLead + i/len(own))
}

func (b *bench) runDurable() error {
	in, err := b.loadInputs()
	if err != nil {
		return err
	}
	sessions := in.Sessions
	// Each set-up gets a data dir of its own, so no removal of the
	// previous one falls inside the timing.
	rep := 0
	svc, setupS, err := timedReps(setupReps, func() (*durable, error) {
		rep++
		return openDurable(filepath.Join(b.dir, fmt.Sprintf("data-%d", rep)), sessions, nil)
	})
	if err != nil {
		return err
	}
	blocks := b.blocks()
	perCaller := blocks * blockPerCaller
	last := make([][]byte, durableSessions)
	for i := range last {
		last[i] = make([]byte, 0, 64<<10)
	}
	callers := make([]*caller, durableCallers)
	for i := range callers {
		callers[i] = newCaller(i)
	}
	// After every round, outside its timing, every session is checked
	// against the model, then hydrad restarts on the data dir (timed:
	// recovery_s is the median restart) and must serve every session
	// exactly as before. The next round runs on the recovered store.
	var recov []float64
	var before [][]byte
	var stop error
	w := runWindow(callers, perCaller, blocks, func(c *caller, from, to int) {
		if stop != nil {
			c.fail += to - from
			return
		}
		for i := from; i < to; i++ {
			s, step := opOf(c.id, i)
			c.record(c.do(svc.h, http.MethodPost, svc.admit[s], sessions[s].Deltas[step]))
			if admitted(&c.w) != nil {
				c.fail++
			}
			if i >= to-durableSessions/durableCallers {
				last[s] = append(last[s][:0], c.w.body()...)
			}
		}
	}, func(_, to int) {
		if stop != nil {
			return
		}
		if b.corrupt && to == perCaller {
			last[0] = corruptDigit(last[0])
		}
		if before, stop = b.checkSessions(svc, sessions, last); stop != nil {
			return
		}
		if b.traced && to == perCaller {
			return // the traced replay below needs no final restart
		}
		svc.close()
		var r *durable
		var t float64
		if r, t, stop = timedBuild(func() (*durable, error) { return reopen(svc, nil) }); stop != nil {
			return
		}
		recov = append(recov, t)
		b.check(sameGETs(r, before))
		svc = r
	})
	svc.close()
	b.attempted = w.ops
	for _, c := range callers {
		b.failed += c.fail
	}
	if stop != nil {
		return stop
	}
	if b.traced {
		b.endToEndFrom(w, durableCallers, setupS, nil)
		return b.traceDurable(sessions, before)
	}
	b.endToEndFrom(w, durableCallers, setupS, recov)
	return nil
}

// checkSessions reads every session back over GET, checks it against
// the model (the base plus the monitors added since the last remove)
// and checks each session's last admit report with the oracle. It
// returns the GET bodies.
func (b *bench) checkSessions(d *durable, sessions []sessionInput, last [][]byte) ([][]byte, error) {
	ctx := context.Background()
	a, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	gets, err := getAll(d)
	if err != nil {
		return nil, err
	}
	held := leadStep(durableLead)
	for i, s := range sessions {
		base, err := hydrac.DecodeTaskSet(bytes.NewReader(s.Base))
		if err != nil {
			return nil, err
		}
		model, _, err := a.NewSession(ctx, base)
		if err != nil {
			return nil, err
		}
		for _, m := range s.Mons[:held] {
			if _, ok, err := model.Admit(ctx, m); err != nil || !ok {
				return nil, fmt.Errorf("model of session %d denied a monitor: %v", i, err)
			}
		}
		var want bytes.Buffer
		if err := hydrac.EncodeTaskSet(&want, model.Set()); err != nil {
			return nil, err
		}
		if !bytes.Equal(gets[i], want.Bytes()) {
			b.check(fmt.Errorf("session %d: GET differs from the model set", i))
			continue
		}
		placed, err := hydrac.DecodeTaskSet(bytes.NewReader(gets[i]))
		if err != nil {
			return nil, err
		}
		rep, err := hydrac.ReadReport(bytes.NewReader(last[i]))
		if err != nil {
			b.check(fmt.Errorf("session %d: last report: %w", i, err))
			continue
		}
		if !rep.Schedulable || rep.TaskSetHash != placed.Hash() {
			b.check(fmt.Errorf("session %d: last report schedulable=%v hash %s, want true and %s", i, rep.Schedulable, rep.TaskSetHash, placed.Hash()))
			continue
		}
		b.check(verifyVerdicts(placed, rep, 1))
	}
	return gets, nil
}

// getAll GETs every session's placed set.
func getAll(d *durable) ([][]byte, error) {
	c := newCaller(0)
	out := make([][]byte, len(d.get))
	for i, path := range d.get {
		c.do(d.h, http.MethodGet, path, nil)
		if c.w.status != http.StatusOK {
			return nil, fmt.Errorf("GET session %d answered %d: %s", i, c.w.status, c.w.body())
		}
		out[i] = bytes.Clone(c.w.body())
	}
	return out, nil
}

// sameGETs checks that a recovered store serves every session exactly
// as it did before the restart.
func sameGETs(d *durable, before [][]byte) error {
	after, err := getAll(d)
	if err != nil {
		return err
	}
	return sameSets(after, before, "GET after recovery differs from the GET before the restart")
}

// sameSets compares GET bodies session by session.
func sameSets(got, want [][]byte, what string) error {
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("session %d: %s", i, what)
		}
	}
	return nil
}

// reopen restarts hydrad on d's data dir the way a restarted daemon
// does — store.Open replays every session, then a new handler is built
// — and serves the first request. The span recovery_s times.
func reopen(d *durable, fs faultfs.FS) (*durable, error) {
	a, err := newAnalyzer()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(d.dir, a, storeOptions(fs))
	if err != nil {
		return nil, err
	}
	r := &durable{service: newService(st, a), dir: d.dir, ids: d.ids, admit: d.admit, get: d.get}
	c := newCaller(0)
	c.do(r.h, http.MethodGet, r.get[0], nil)
	if c.w.status != http.StatusOK {
		r.close()
		return nil, fmt.Errorf("first request after recovery answered %d: %s", c.w.status, c.w.body())
	}
	return r, nil
}

// traceDurable replays one round of the workload on a fresh data dir
// whose store writes through a recording faultfs.FS, so WAL writes,
// fsyncs and compactions are timed inside each request. Per op it
// also times the delta decode (task), store.Acquire (store) and the
// same delta on an in-memory twin session (admit), and checks the
// twin's report is byte-identical to the durable one. A traced restart
// then times store.Open and its WAL reads.
func (b *bench) traceDurable(sessions []sessionInput, before [][]byte) error {
	ctx := context.Background()
	dir := filepath.Join(b.dir, "traced")
	perCaller := blockPerCaller
	ops := perCaller * durableCallers
	rec := newRecorder(ops * 12)
	fs := newRecFS(rec)
	d, err := openDurable(dir, sessions, fs)
	if err != nil {
		return err
	}
	twins := make([]*hydrac.Session, len(sessions))
	owners := make([]*owner, len(sessions))
	for i, s := range sessions {
		base, err := hydrac.DecodeTaskSet(bytes.NewReader(s.Base))
		if err != nil {
			d.close()
			return err
		}
		tw, _, err := d.a.NewSession(ctx, base)
		if err != nil {
			d.close()
			return err
		}
		for k := 0; k < durableLead; k++ {
			delta, err := hydrac.DecodeDelta(bytes.NewReader(s.Deltas[leadStep(k)]))
			if err != nil {
				d.close()
				return err
			}
			if _, ok, err := tw.Admit(ctx, *delta); err != nil || !ok {
				d.close()
				return fmt.Errorf("twin %d set-up cycle denied: %v", i, err)
			}
		}
		twins[i] = tw
		owners[i] = &owner{}
		owners[i].parent.Store(-1)
		fs.owners[d.ids[i]] = owners[i]
	}

	kinds := make([][]float64, 2) // serve time of adds, removes
	self := make([]float64, ops)
	last := make([][]byte, durableSessions)
	callers := make([]*caller, durableCallers)
	for i := range callers {
		callers[i] = newCaller(i)
	}
	kindOf := make([]bool, ops) // true for removes
	tw := runWindow(callers, perCaller, 1, func(c *caller, _, _ int) {
		var enc bytes.Buffer
		for i := 0; i < perCaller; i++ {
			s, step := opOf(c.id, i)
			op := int32(c.id*perCaller + i)
			o := owners[s]
			sv := rec.open(spServe, op, -1)
			o.op.Store(op)
			o.parent.Store(sv)
			c.do(d.h, http.MethodPost, d.admit[s], sessions[s].Deltas[step])
			fs.endRequest(o)
			rec.close(sv)
			if admitted(&c.w) != nil {
				c.fail++
				continue
			}
			remove := step == monitors
			kindOf[op] = remove
			var delta *task.Delta
			var derr, aerr error
			restated := rec.time(spDeltaDecode, op, -1, func() { delta, derr = hydrac.DecodeDelta(bytes.NewReader(sessions[s].Deltas[step])) })
			restated += rec.time(spAcquire, op, -1, func() {
				_, release, err := d.st.Acquire(ctx, d.ids[s])
				if err == nil {
					release()
				}
				aerr = err
			})
			if err := firstErr(derr, aerr); err != nil {
				b.check(err)
				continue
			}
			name := spAdmitAdd
			if remove {
				name = spAdmitRemove
			}
			var rep *hydrac.Report
			var ok bool
			restated += rec.time(name, op, -1, func() { rep, ok, aerr = twins[s].Admit(ctx, *delta) })
			if aerr != nil || !ok {
				b.check(fmt.Errorf("twin of session %d denied op %d: %v", s, i, aerr))
				continue
			}
			enc.Reset()
			restated += rec.time(spEncode, op, -1, func() { hydrac.WriteReport(&enc, rep) })
			if !bytes.Equal(enc.Bytes(), c.w.body()) {
				c.fail++
			}
			if i >= perCaller-durableSessions/durableCallers {
				last[s] = bytes.Clone(c.w.body())
			}
			self[op] = float64(rec.get(sv).dur() - restated)
		}
	}, nil)
	b.attempted += tw.ops
	for _, c := range callers {
		b.failed += c.fail
	}
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.name != spServe {
			continue
		}
		k := 0
		if kindOf[s.op] {
			k = 1
		}
		kinds[k] = append(kinds[k], float64(s.dur()))
	}
	// File operations inside a request are part of its serve span but
	// not of the restated layer calls; take them out of the self time.
	inside := make([]float64, ops)
	walWrites, walSyncs, walBytes, compactions := 0, 0, int64(0), 0
	for _, s := range rec.spans {
		switch s.name {
		case spWALWrite, spWALSync, spFSOther:
			if s.op >= 0 {
				inside[s.op] += float64(s.dur())
			}
		}
		if s.op < 0 {
			continue
		}
		switch s.name {
		case spWALWrite:
			walWrites++
			walBytes += s.n
		case spWALSync:
			walSyncs++
		case spCompact:
			compactions++
		}
	}
	for op := range self {
		self[op] -= inside[op]
	}
	gets, err := getAll(d)
	if err == nil {
		b.check(sameTwinGETs(gets, twins))
		b.check(sameSets(gets, before, "the traced replay ended in another state than the untraced window"))
	}
	d.close()
	if err != nil {
		return err
	}

	// A traced restart: store.Open replays every session through the
	// recording FS.
	runtime.GC()
	open := rec.open(spOpen, -1, -1)
	fs.fallback.Store(open)
	t0 := time.Now()
	r, err := reopen(d, fs)
	openS := time.Since(t0).Seconds()
	rec.close(open)
	fs.fallback.Store(-1)
	if err != nil {
		return err
	}
	b.check(sameGETs(r, gets))
	r.close()
	readMS, replayed := 0.0, int64(0)
	for _, s := range rec.spans {
		if s.name == spWALRead && s.parent == open {
			readMS += ms(float64(s.dur()))
			replayed += s.n
		}
	}

	commits := float64(tw.ops)
	b.metrics["hydradhttp.serve_us"] = us(median(rec.byName(spServe)))
	b.metrics["hydradhttp.self_us"] = us(median(self))
	b.metrics["hydradhttp.admit_add_ms"] = ms(median(kinds[0]))
	b.metrics["hydradhttp.admit_remove_ms"] = ms(median(kinds[1]))
	b.metrics["task.delta_decode_us"] = us(median(rec.byName(spDeltaDecode)))
	b.metrics["store.acquire_us"] = us(median(rec.byName(spAcquire)))
	b.metrics["admit.add_ms"] = ms(median(rec.byName(spAdmitAdd)))
	b.metrics["admit.remove_ms"] = ms(median(rec.byName(spAdmitRemove)))
	b.metrics["hydrac.encode_us"] = us(median(rec.byName(spEncode)))
	b.metrics["wal.write_us"] = us(median(opSpans(rec, spWALWrite)))
	b.metrics["wal.fsync_us"] = us(median(opSpans(rec, spWALSync)))
	b.metrics["wal.fsyncs_per_commit"] = float64(walSyncs) / commits
	b.metrics["wal.bytes_per_commit"] = float64(walBytes) / commits
	b.metrics["store.compactions"] = float64(compactions)
	b.metrics["store.compact_ms"] = ms(median(rec.byName(spCompact)))
	b.metrics["store.open_s"] = openS
	b.metrics["wal.read_ms"] = readMS
	b.metrics["store.replayed_deltas"] = float64(replayed)
	b.logf("traced window: %d WAL writes for %.0f commits, %d compactions; twin reports byte-identical", walWrites, commits, compactions)
	return b.traceSummary(rec)
}

// opSpans returns the durations of the spans called name that ran
// inside a request.
func opSpans(rec *recorder, name spanName) []float64 {
	var out []float64
	for _, s := range rec.spans {
		if s.name == name && s.op >= 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// sameTwinGETs checks every durable session against its in-memory
// twin.
func sameTwinGETs(gets [][]byte, twins []*hydrac.Session) error {
	for i, tw := range twins {
		var want bytes.Buffer
		if err := hydrac.EncodeTaskSet(&want, tw.Set()); err != nil {
			return err
		}
		if !bytes.Equal(gets[i], want.Bytes()) {
			return fmt.Errorf("session %d: durable GET differs from its in-memory twin", i)
		}
	}
	return nil
}
