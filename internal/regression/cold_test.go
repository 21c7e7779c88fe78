package regression

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hydrac/internal/loadgen"
	"hydrac/internal/lru"
	"hydrac/internal/task"
)

// Every shipped load case keeps its rotating traffic as cold as the
// case says. Each case is replayed at each of its concurrency levels,
// one request per worker in turn, through a model of hydrad's two
// caches, both daemon.cache entries: the per-set report LRU, and the
// exact-byte envelope LRU, which a body enters on a report hit. No
// rotating request may find a task set cached; a batch body counts as
// its member sets. The one exception is a set the case's dup stream
// re-posts (pool[0]), which stays resident on purpose.
func TestShippedLoadCasesStayCold(t *testing.T) {
	cases, err := LoadCases("../../test/regression/cases", nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, c := range cases {
		if c.Profile.Kind != KindLoad {
			continue
		}
		src, err := c.BuildSource()
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string][]string{} // body → the report-cache keys of its sets
		resident := map[string]bool{} // sets the dup stream keeps cached
		tagged := tagSources(t, src, keys, resident)
		for _, level := range c.Profile.Concurrency {
			hits, total := replayCold(t, tagged, level, 8*c.Profile.Workload.Sets, c.Profile.Daemon.Cache, keys, resident)
			if hits > 0 {
				t.Errorf("%s at c %d: %d of %d rotating task-set requests hit a %d-entry cache", c.Name, level, hits, total, c.Profile.Daemon.Cache)
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no load case replayed")
	}
}

// Request tags: the replay tells rotating traffic from dup and session
// traffic by a path prefix its wrapped sources add.
const (
	tagRotating = "rotating:"
	tagOther    = "other:"
)

// tagSources rebuilds src so that every request says which kind of
// child produced it, with session children replaced by stubs that
// need no daemon. It records the report-cache keys of every body a
// rotating or dup child can post, and marks the dup children's sets
// resident.
func tagSources(t *testing.T, src loadgen.Source, keys map[string][]string, resident map[string]bool) loadgen.Source {
	t.Helper()
	switch s := src.(type) {
	case loadgen.Mix:
		out := loadgen.Mix{}
		for _, e := range s.Entries {
			out.Entries = append(out.Entries, loadgen.MixEntry{Source: tagSources(t, e.Source, keys, resident), Weight: e.Weight})
		}
		return out
	case loadgen.Rotating:
		for _, b := range s.Bodies {
			keys[string(b)] = setKeys(t, s.Path, b)
		}
		return tagged{src: s, tag: tagRotating}
	case loadgen.Fixed:
		keys[string(s.Body)] = setKeys(t, s.Path, s.Body)
		for _, k := range keys[string(s.Body)] {
			resident[k] = true
		}
		return tagged{src: s, tag: tagOther}
	case loadgen.SessionAdmit:
		return sessionStub{}
	}
	t.Fatalf("unknown source %T", src)
	return nil
}

// setKeys decodes a request body into the report-cache keys of the
// task sets it carries, in analysis order.
func setKeys(t *testing.T, path string, body []byte) []string {
	t.Helper()
	raws := []json.RawMessage{body}
	if strings.HasSuffix(path, "/batch") {
		var req struct {
			TaskSets []json.RawMessage `json:"task_sets"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		raws = req.TaskSets
	}
	var out []string
	for _, raw := range raws {
		ts, err := task.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ts.Hash())
	}
	return out
}

// replayCold interleaves the workers' streams round-robin for rounds
// requests each and counts the rotating task-set requests that hit.
func replayCold(t *testing.T, src loadgen.Source, workers, rounds, capacity int, keys map[string][]string, resident map[string]bool) (hits, total int) {
	t.Helper()
	streams := make([]loadgen.Stream, workers)
	for w := range streams {
		s, err := src.NewStream(nil, "", w)
		if err != nil {
			t.Fatal(err)
		}
		streams[w] = s
	}
	reports := lru.New[string, struct{}](capacity)
	envelopes := lru.New[string, struct{}](capacity)
	for i := 0; i < rounds; i++ {
		for _, s := range streams {
			req := s.Next(i)
			rotating := strings.HasPrefix(req.Path, tagRotating)
			if !rotating && !strings.HasPrefix(req.Path, tagOther) {
				continue // session traffic never reads the analysis caches
			}
			count := func(k string, hit bool) {
				if rotating {
					total++
					if hit && !resident[k] {
						hits++
					}
				}
			}
			body := string(req.Body)
			ks := keys[body]
			single := !strings.HasSuffix(req.Path, "/batch")
			if single {
				// The envelope cache answers an exact-byte repeat before
				// the report cache is consulted, and takes a body in once
				// the report cache has served it.
				if _, ok := envelopes.Get(body); ok {
					count(ks[0], true)
					continue
				}
			}
			for _, k := range ks {
				_, hit := reports.Get(k)
				if !hit {
					reports.Add(k, struct{}{})
				} else if single {
					envelopes.Add(body, struct{}{})
				}
				count(k, hit)
			}
		}
	}
	return hits, total
}

// tagged prefixes every request path of a source with its tag.
type tagged struct {
	src loadgen.Source
	tag string
}

func (s tagged) NewStream(client *http.Client, target string, worker int) (loadgen.Stream, error) {
	inner, err := s.src.NewStream(client, target, worker)
	if err != nil {
		return nil, err
	}
	return taggedStream{inner: inner, tag: s.tag}, nil
}

type taggedStream struct {
	inner loadgen.Stream
	tag   string
}

func (s taggedStream) Next(i int) loadgen.Request {
	req := s.inner.Next(i)
	req.Path = s.tag + req.Path
	return req
}

// sessionStub stands in for a session child: its requests only take
// their slots in the mix schedule.
type sessionStub struct{}

func (sessionStub) NewStream(*http.Client, string, int) (loadgen.Stream, error) {
	return sessionStub{}, nil
}

func (sessionStub) Next(int) loadgen.Request { return loadgen.Request{Path: "session"} }
