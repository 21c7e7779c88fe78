package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
)

// Fixed re-posts one body to one path forever: dup-heavy traffic.
// Against hydrad this is the exact-byte duplicate hot path — after
// the first response the exact-byte response cache serves every request.
type Fixed struct {
	Path string
	Body []byte
}

func (f Fixed) NewStream(_ *http.Client, _ string, _ int) (Stream, error) {
	if len(f.Body) == 0 {
		return nil, fmt.Errorf("fixed source for %s has no body", f.Path)
	}
	return fixedStream{req: Request{Path: f.Path, Body: f.Body}}, nil
}

type fixedStream struct{ req Request }

func (s fixedStream) Next(int) Request { return s.req }

// Rotating cycles a pool of distinct pre-encoded bodies: cold traffic.
// Workers start at spread offsets so concurrent workers do not post
// the same body close together (which would let the caches serve all
// but one of them).
type Rotating struct {
	Path   string
	Bodies [][]byte
}

func (r Rotating) NewStream(_ *http.Client, _ string, worker int) (Stream, error) {
	if len(r.Bodies) == 0 {
		return nil, fmt.Errorf("rotating source for %s has no bodies", r.Path)
	}
	return &rotatingStream{path: r.Path, bodies: r.Bodies, off: startOffset(worker, len(r.Bodies))}, nil
}

// startOffset is worker's first body in a pool of n: the base-2
// radical inverse of worker scaled to n (0, n/2, n/4, 3n/4, n/8, …).
// Workers 0..c−1 then start at least ⌊n/2c⌋ bodies apart for every
// pool size and worker count, so a body one worker posts comes back
// only after about n/2 other bodies. A fixed stride s cannot promise
// that: it puts worker w+1 one body behind worker w in every pool
// whose size divides s+1.
func startOffset(worker, n int) int {
	// Reversing the bits of worker yields its radical inverse as a
	// 64-bit binary fraction; the high word of fraction × n scales it.
	hi, _ := bits.Mul64(bits.Reverse64(uint64(worker)), uint64(n))
	return int(hi)
}

type rotatingStream struct {
	path   string
	bodies [][]byte
	off    int
}

func (s *rotatingStream) Next(i int) Request {
	return Request{Path: s.path, Body: s.bodies[(s.off+i)%len(s.bodies)]}
}

// SessionAdmit opens one admission session per worker (outside the
// measurement window) and then alternates admit/remove deltas against
// it: incremental-admission traffic in steady state. The admit delta
// should add what the remove delta removes, so the session returns to
// its base set every two requests.
type SessionAdmit struct {
	// Base is the task set the session opens on.
	Base []byte
	// Admit and Remove are the alternating delta bodies.
	Admit  []byte
	Remove []byte
}

func (s SessionAdmit) NewStream(client *http.Client, target string, _ int) (Stream, error) {
	resp, err := client.Post(target+"/v1/session", "application/json", bytes.NewReader(s.Base))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var open struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		return nil, fmt.Errorf("decoding session open response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || open.SessionID == "" {
		return nil, fmt.Errorf("opening session: status %d", resp.StatusCode)
	}
	return &sessionStream{
		path:   "/v1/session/" + open.SessionID + "/admit",
		bodies: [2][]byte{s.Admit, s.Remove},
	}, nil
}

type sessionStream struct {
	path   string
	bodies [2][]byte
}

func (s *sessionStream) Next(i int) Request {
	return Request{Path: s.path, Body: s.bodies[i%2]}
}

// Mix interleaves child sources by integer weight: a schedule of
// length Σweights repeats, with each child appearing weight times,
// spread round-robin. Each child stream keeps its own request index,
// so a rotating child still cycles its whole pool.
type Mix struct {
	Entries []MixEntry
}

// MixEntry pairs a child source with its relative weight (≥1).
type MixEntry struct {
	Source Source
	Weight int
}

func (m Mix) NewStream(client *http.Client, target string, worker int) (Stream, error) {
	if len(m.Entries) == 0 {
		return nil, fmt.Errorf("mix source has no entries")
	}
	streams := make([]Stream, len(m.Entries))
	total := 0
	for i, e := range m.Entries {
		if e.Weight < 1 {
			return nil, fmt.Errorf("mix entry %d has weight %d (want ≥1)", i, e.Weight)
		}
		s, err := e.Source.NewStream(client, target, worker)
		if err != nil {
			return nil, err
		}
		streams[i] = s
		total += e.Weight
	}
	// Largest-remainder round-robin: lay the schedule out so children
	// alternate rather than run in blocks (a block of dup requests
	// behaves differently against the caches than an interleave).
	schedule := make([]int, 0, total)
	credit := make([]int, len(m.Entries))
	for len(schedule) < total {
		best, bestCredit := -1, 0
		for i, e := range m.Entries {
			credit[i] += e.Weight
			if best == -1 || credit[i] > bestCredit {
				best, bestCredit = i, credit[i]
			}
		}
		credit[best] -= total
		schedule = append(schedule, best)
	}
	return &mixStream{streams: streams, schedule: schedule, counts: make([]int, len(streams))}, nil
}

type mixStream struct {
	streams  []Stream
	schedule []int
	counts   []int
}

func (s *mixStream) Next(i int) Request {
	child := s.schedule[i%len(s.schedule)]
	j := s.counts[child]
	s.counts[child]++
	return s.streams[child].Next(j)
}
