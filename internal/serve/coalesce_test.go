package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// reply is one finished HTTP exchange, collected from a client goroutine.
type reply struct {
	status      int
	tier, fp    string
	retryAfter  string
	body        []byte
	err         error
	contentType string
}

// send posts body to url under ctx and reads the whole answer.
func send(ctx context.Context, url, body string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{
		status:      resp.StatusCode,
		tier:        resp.Header.Get("X-Cache"),
		fp:          resp.Header.Get("X-Fingerprint"),
		retryAfter:  resp.Header.Get("Retry-After"),
		contentType: resp.Header.Get("Content-Type"),
		body:        b,
		err:         err,
	}
}

// sendAll posts body to url n times at once and returns the replies once
// every request has answered.
func sendAll(url, body string, n int) func() []reply {
	out := make([]reply, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range out {
		go func() {
			defer wg.Done()
			out[i] = send(context.Background(), url, body)
		}()
	}
	return func() []reply {
		wg.Wait()
		return out
	}
}

// waiter is a synchronous request whose client can disconnect on demand.
type waiter struct {
	cancel context.CancelFunc
	done   chan reply
}

func startWaiter(url, body string) *waiter {
	ctx, cancel := context.WithCancel(context.Background())
	w := &waiter{cancel: cancel, done: make(chan reply, 1)}
	go func() { w.done <- send(ctx, url, body) }()
	return w
}

// disconnect drops the client and waits for its request to end.
func (w *waiter) disconnect(t *testing.T) {
	t.Helper()
	w.cancel()
	if r := <-w.done; r.err == nil {
		t.Fatalf("disconnected request answered %d", r.status)
	}
}

// blockWorker occupies the only worker of s with a synchronous slowDoc run,
// so the jobs submitted next stay queued until release. The blocker's
// engine run has started when blockWorker returns.
func blockWorker(t *testing.T, s *Server, ts *httptest.Server) (release func()) {
	t.Helper()
	runs := s.EngineRuns()
	w := startWaiter(ts.URL+"/v1/scenarios", slowDoc)
	release = sync.OnceFunc(func() { w.disconnect(t) })
	t.Cleanup(release)
	waitFor(t, 5*time.Second, func() bool { return s.EngineRuns() == runs+1 })
	return release
}

// flightJob returns the job in flight for (kind, fp), or nil.
func flightJob(s *Server, kind, fp string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flights[flightKey{kind, fp}]
}

// holds reports j's synchronous waiter count and async pin.
func holds(s *Server, j *job) (waiters int, pinned bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.waiters, j.pinned
}

// TestCoalesceIdenticalScenarioMisses pins the single flight: 16 concurrent
// identical uncached requests run the engine once, and every one of them
// answers the library's bytes as a miss.
func TestCoalesceIdenticalScenarioMisses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	want := referenceResult(t, pigouQuickDoc)
	release := blockWorker(t, s, ts)
	runs := s.EngineRuns()

	const n = 16
	wait := sendAll(ts.URL+"/v1/scenarios", pigouQuickDoc, n)
	waitFor(t, 5*time.Second, func() bool { return s.met.coalesced.Value() == n-1 })
	release()
	replies := wait()

	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d err %v (%s)", i, r.status, r.err, r.body)
		}
		if r.tier != TierMiss || r.fp != replies[0].fp || r.contentType != "application/json" {
			t.Fatalf("request %d: X-Cache %q X-Fingerprint %q Content-Type %q", i, r.tier, r.fp, r.contentType)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("request %d body differs from the library pipeline:\n got: %s\nwant: %s", i, r.body, want)
		}
	}
	if got := s.EngineRuns() - runs; got != 1 {
		t.Fatalf("%d identical misses ran the engine %d times, want 1", n, got)
	}
	if got := s.met.cacheHits.Value() + s.met.coalesced.Value(); got != n-1 {
		t.Fatalf("hits + coalesced = %d, want %d", got, n-1)
	}
	// The blocker and the shared job are the only misses that scheduled work.
	if got := s.met.cacheMisses.Value(); got != 2 {
		t.Fatalf("cache misses = %d, want 2", got)
	}
	if flightJob(s, kindScenario, replies[0].fp) != nil {
		t.Fatal("flight entry outlived its job")
	}
	resp, body := postJSON(t, ts.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.Header.Get("X-Cache") != TierHit || !bytes.Equal(body, want) {
		t.Fatalf("request after the flight: X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
}

// TestCoalesceTasksAndCampaigns extends the single flight to the other two
// miss paths: concurrent identical tasks share one run and its record, and
// concurrent identical campaigns share one job resource.
func TestCoalesceTasksAndCampaigns(t *testing.T) {
	const n = 8
	t.Run("tasks", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		want := referenceTaskRecord(t, taskDoc)
		release := blockWorker(t, s, ts)
		runs := s.EngineRuns()
		wait := sendAll(ts.URL+"/v1/tasks", taskDoc, n)
		waitFor(t, 5*time.Second, func() bool { return s.met.coalesced.Value() == n-1 })
		release()
		for i, r := range wait() {
			if r.err != nil || r.status != http.StatusOK || r.tier != TierMiss || r.contentType != "application/x-ndjson" {
				t.Fatalf("task %d: status %d X-Cache %q Content-Type %q err %v", i, r.status, r.tier, r.contentType, r.err)
			}
			if !bytes.Equal(r.body, want) {
				t.Fatalf("task %d record differs:\n got %s\nwant %s", i, r.body, want)
			}
		}
		if got := s.EngineRuns() - runs; got != 1 {
			t.Fatalf("%d identical tasks ran the engine %d times, want 1", n, got)
		}
	})
	t.Run("campaigns", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		release := blockWorker(t, s, ts)
		runs := s.EngineRuns()
		replies := sendAll(ts.URL+"/v1/campaigns", campaignDoc, n)()
		var id string
		for i, r := range replies {
			if r.err != nil || r.status != http.StatusAccepted {
				t.Fatalf("campaign %d: status %d err %v (%s)", i, r.status, r.err, r.body)
			}
			var st JobStatus
			if err := json.Unmarshal(r.body, &st); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				id = st.ID
			}
			if st.ID != id {
				t.Fatalf("campaign %d answered job %s, want the shared job %s", i, st.ID, id)
			}
		}
		if got := s.met.coalesced.Value(); got != n-1 {
			t.Fatalf("coalesced = %d, want %d", got, n-1)
		}
		release()
		j := s.jobByID(id)
		<-j.done
		if st := j.status(); st.State != JobDone {
			t.Fatalf("shared campaign job ended %s (%s)", st.State, st.Error)
		}
		// campaignDoc expands to two tasks: one campaign run is two engine runs.
		if got := s.EngineRuns() - runs; got != 2 {
			t.Fatalf("%d identical campaigns ran %d engine runs, want 2", n, got)
		}
	})
}

// TestCoalescedFailureSharedNotCached pins that a shared job's failure
// reaches every attached request, and that a later request runs again.
func TestCoalescedFailureSharedNotCached(t *testing.T) {
	if err := registerPanicTopology(); err != nil {
		t.Fatal(err)
	}
	const doc = `{"topology":{"family":"serve-test-panics"},"policy":{"kind":"replicator"},"updatePeriod":0.05,"maxPhases":10}`
	s, ts := newTestServer(t, Config{Workers: 1})
	release := blockWorker(t, s, ts)
	const n = 4
	wait := sendAll(ts.URL+"/v1/scenarios", doc, n)
	waitFor(t, 5*time.Second, func() bool { return s.met.coalesced.Value() == n-1 })
	release()
	replies := wait()
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusUnprocessableEntity || !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d: status %d body %s, want the shared 422 %s", i, r.status, r.body, replies[0].body)
		}
	}
	failed := s.met.jobsFailed.Value()
	resp, _ := postJSON(t, ts.URL+"/v1/scenarios", doc)
	if resp.StatusCode != http.StatusUnprocessableEntity || s.met.jobsFailed.Value() != failed+1 {
		t.Fatalf("retry after a shared failure: status %d, jobs failed %d -> %d; want a fresh failing run",
			resp.StatusCode, failed, s.met.jobsFailed.Value())
	}
}

// TestCoalescedWaiterLeaves pins cancellation by reference count: a shared
// synchronous job outlives its first waiter's disconnect and is cancelled,
// freeing the worker, when its last waiter leaves.
func TestCoalescedWaiterLeaves(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	a := startWaiter(ts.URL+"/v1/scenarios", slowDoc)
	t.Cleanup(a.cancel)
	waitFor(t, 5*time.Second, func() bool { return s.EngineRuns() == 1 })
	b := startWaiter(ts.URL+"/v1/scenarios", slowDoc)
	t.Cleanup(b.cancel)
	waitFor(t, 5*time.Second, func() bool { return s.met.coalesced.Value() == 1 })
	j := s.jobByID("j00000001")

	a.disconnect(t)
	waitFor(t, 5*time.Second, func() bool { w, _ := holds(s, j); return w == 1 })
	if err := j.ctx.Err(); err != nil {
		t.Fatalf("job cancelled while a waiter remains: %v", err)
	}
	if st := j.status().State; st != JobRunning {
		t.Fatalf("job state = %s after one of two waiters left, want running", st)
	}

	b.disconnect(t)
	<-j.done
	if st := j.status().State; st != JobFailed {
		t.Fatalf("job state = %s after its last waiter left, want failed", st)
	}
	resp, body := postJSON(t, ts.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the cancelled run: status %d (%s)", resp.StatusCode, body)
	}
}

// TestAsyncSubmitterPinsCoalescedJob pins that a job an async submitter
// holds runs to the end even when every synchronous waiter has left.
func TestAsyncSubmitterPinsCoalescedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	want := referenceResult(t, pigouQuickDoc)
	release := blockWorker(t, s, ts)

	resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", pigouQuickDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submission: status %d (%s)", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	j := s.jobByID(st.ID)
	w := startWaiter(ts.URL+"/v1/scenarios", pigouQuickDoc)
	t.Cleanup(w.cancel)
	waitFor(t, 5*time.Second, func() bool { return s.met.coalesced.Value() == 1 })
	w.disconnect(t)
	waitFor(t, 5*time.Second, func() bool { n, _ := holds(s, j); return n == 0 })
	if _, pinned := holds(s, j); !pinned || j.ctx.Err() != nil {
		t.Fatalf("async job pinned=%v ctx=%v after its sync waiter left; want pinned and live", pinned, j.ctx.Err())
	}

	release()
	<-j.done
	if st := j.status(); st.State != JobDone {
		t.Fatalf("pinned job ended %s (%s), want done", st.State, st.Error)
	}
	if !bytes.Equal(j.resultBytes(), want) {
		t.Fatalf("pinned job result differs from the library pipeline:\n got: %s\nwant: %s", j.resultBytes(), want)
	}
}

// TestQueueFullRefusesDuplicates pins atomic join-or-submit: a spec the
// full queue refused leaves no flight behind, so its duplicate is refused
// too instead of waiting on a job that will never run.
func TestQueueFullRefusesDuplicates(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	blockWorker(t, s, ts)
	filler := strings.Replace(slowDoc, "slow", "slow-filler", 1)
	if resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", filler); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue filler: status %d (%s)", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	replies := make([]reply, 2)
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = send(ctx, ts.URL+"/v1/scenarios", pigouQuickDoc)
		}()
	}
	wg.Wait()
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusServiceUnavailable || r.retryAfter != "1" {
			t.Fatalf("request %d on a full queue: status %d Retry-After %q err %v", i, r.status, r.retryAfter, r.err)
		}
	}
	if got := s.met.coalesced.Value(); got != 0 {
		t.Fatalf("coalesced = %d onto a refused job, want 0", got)
	}
	if flightJob(s, kindScenario, replies[0].fp) != nil {
		t.Fatal("a refused job was left in flight")
	}
}

// TestTracedRequestsRunAlone pins that a ?trace=N request neither leads nor
// joins a flight: its stream carries its own spans.
func TestTracedRequestsRunAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	want := referenceResult(t, pigouQuickDoc)
	release := blockWorker(t, s, ts)
	runs := s.EngineRuns()

	var waits []func() []reply
	for i, url := range []string{
		ts.URL + "/v1/scenarios?trace=8",
		ts.URL + "/v1/scenarios",
		ts.URL + "/v1/scenarios?trace=8",
	} {
		waits = append(waits, sendAll(url, pigouQuickDoc, 1))
		waitFor(t, 5*time.Second, func() bool { return len(s.queue) == i+1 })
	}
	if got := s.met.coalesced.Value(); got != 0 {
		t.Fatalf("coalesced = %d with traced requests, want 0", got)
	}
	release()
	for i, wait := range waits {
		r := wait()[0]
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			t.Fatalf("request %d: status %d err %v body %s", i, r.status, r.err, r.body)
		}
	}
	if got := s.EngineRuns() - runs; got != 3 {
		t.Fatalf("engine runs = %d, want 3 (traced requests run alone)", got)
	}
}
