package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"strconv"

	"wardrop/internal/obs"
	"wardrop/internal/scenario"
	"wardrop/internal/sweep"
)

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps an error to a JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// parseSpec decodes the request body through parse, distinguishing an
// oversized body (413) from an invalid document (400).
func parseSpec[T any](w http.ResponseWriter, r *http.Request, parse func(io.Reader) (T, error)) (T, bool) {
	v, err := parse(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return v, false
	}
	return v, true
}

// maxTraceSpans caps the per-job tracer ring a client may request; the ring
// is preallocated, so an unbounded ?trace=N would be a memory lever.
const maxTraceSpans = 1 << 16

// submitStatus maps a submission failure to its HTTP status.
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeSubmitError answers a failed submission. A full queue is a transient
// condition — the 503 carries Retry-After so well-behaved clients (the
// dispatch coordinator among them) back off instead of hammering; draining
// is terminal for this process and gets no retry hint.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, submitStatus(err), err)
}

// Health is the JSON body of GET /healthz — a readiness probe, not a
// liveness stub. It exercises the durable store tier with a write/read
// roundtrip under a reserved probe key and reports queue saturation; the
// endpoint answers 503 when the process is draining, the store probe fails,
// or the job queue is saturated, so load balancers and the dispatch
// coordinator stop routing work to a node that would only shed it.
type Health struct {
	// Status is "ok" when the node is ready and "unavailable" otherwise.
	Status string `json:"status"`
	// Draining reports a server refusing new jobs during shutdown.
	Draining bool `json:"draining"`
	// QueueDepth / QueueCapacity / QueueSaturation describe the job queue;
	// saturation 1 means every further submission is shed with 503.
	QueueDepth      int     `json:"queueDepth"`
	QueueCapacity   int     `json:"queueCapacity"`
	QueueSaturation float64 `json:"queueSaturation"`
	// Store is the durable-tier probe outcome: "ok", "disabled" (no -store
	// configured), or the probe error.
	Store string `json:"store"`
}

// Store probe outcomes for the ready states.
const (
	storeOK       = "ok"
	storeDisabled = "disabled"
)

// probeBody is the fixed document the readiness probe writes and reads back;
// probeKey is its own SHA-256, which makes it a valid store key that cannot
// collide with a real result fingerprint (those hash canonical spec
// documents, none of which is this probe body).
var (
	probeBody = []byte(`{"wardserve":"readiness probe"}` + "\n")
	probeKey  = func() string {
		sum := sha256.Sum256(probeBody)
		return hex.EncodeToString(sum[:])
	}()
)

// storeProbe exercises the durable tier with a write/read roundtrip.
func (s *Server) storeProbe() string {
	st := s.cache.store
	if st == nil {
		return storeDisabled
	}
	if err := st.Put(probeKey, probeBody); err != nil {
		return "error: " + err.Error()
	}
	got, err := st.Get(probeKey)
	if err != nil {
		return "error: " + err.Error()
	}
	if !bytes.Equal(got, probeBody) {
		return "error: probe object corrupted"
	}
	return storeOK
}

// Health assembles the readiness document; ready reports whether the node
// should receive traffic.
func (s *Server) Health() (h Health, ready bool) {
	s.mu.Lock()
	h.Draining = s.draining
	s.mu.Unlock()
	h.QueueDepth = len(s.queue)
	h.QueueCapacity = s.cfg.QueueDepth
	h.QueueSaturation = float64(h.QueueDepth) / float64(h.QueueCapacity)
	h.Store = s.storeProbe()
	ready = !h.Draining && h.QueueDepth < h.QueueCapacity &&
		(h.Store == storeOK || h.Store == storeDisabled)
	h.Status = "ok"
	if !ready {
		h.Status = "unavailable"
	}
	return h, ready
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, ready := s.Health()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Catalog())
}

// handleMetrics answers GET /metrics. The default body is the JSON Metrics
// document; ?format=prom renders the full instrument registry in Prometheus
// text exposition format instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = s.met.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// MetricsSnapshot assembles the current Metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	hits, misses := s.met.cacheHits.Value(), s.met.cacheMisses.Value()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	p50, p99 := s.met.percentiles()
	st := s.cache.StoreStats()
	return Metrics{
		JobsRun:         s.met.jobsRun.Value(),
		JobsFailed:      s.met.jobsFailed.Value(),
		EngineRuns:      s.engineRuns.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheHitRate:    rate,
		CacheEntries:    s.cache.Len(),
		StoreHits:       s.met.storeHits.Value(),
		StorePuts:       s.met.storePuts.Value(),
		StoreErrors:     s.met.storeErrors.Value(),
		StoreObjects:    st.Objects,
		StoreBytes:      st.Bytes,
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.cfg.QueueDepth,
		QueueSaturation: float64(len(s.queue)) / float64(s.cfg.QueueDepth),
		QueueHighWater:  int64(s.met.queueHighWater.Value()),
		StoreProbe:      s.storeProbe(),
		JobsRunning:     s.met.jobsRunning(),
		Workers:         s.cfg.Workers,
		RunLatencyMsP50: p50,
		RunLatencyMsP99: p99,
	}
}

// handleScenarios answers POST /v1/scenarios: parse, fingerprint, serve
// from the result cache when possible, otherwise join the identical run in
// flight or schedule one (see attach). The default mode runs synchronously —
// the response body is the scenario's canonical result document,
// byte-identical to `wardsim -scenario <file> -json` on the same spec.
// `?mode=job` detaches the run from the request and answers with a job
// resource instead (stream the trajectory from /v1/jobs/{id}/stream).
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	spec, ok := parseSpec(w, r, scenario.Parse)
	if !ok {
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Fingerprint", fp)
	async := r.URL.Query().Get("mode") == "job"
	// ?trace=N attaches a span tracer (ring capacity N) to the run; each
	// recorded span is streamed as a {"span":…} NDJSON line. A request
	// answered from the cache ran no engine and therefore carries no spans.
	trace := 0
	if t := r.URL.Query().Get("trace"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errors.New("serve: trace must be a non-negative integer"))
			return
		}
		if n > maxTraceSpans {
			n = maxTraceSpans
		}
		trace = n
	}
	if body, tier, ok := s.cacheGet(kindScenario, fp); ok {
		if !async {
			w.Header().Set("X-Cache", tier)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			return
		}
		j := s.newJob(kindScenario, fp, context.Background())
		j.spec = spec
		j.complete(body, true)
		s.register(j)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	s.serveMiss(w, r, kindScenario, fp, trace, async, "application/json", func(j *job) { j.spec = spec })
}

// serveMiss answers a request that missed both cache tiers from the job
// attach finds for it. An async request answers the job resource at once
// (202); a synchronous one waits for the result document, or answers the
// job's error as 422. Every request attached to one job gets the same
// answer, X-Cache: miss included.
func (s *Server) serveMiss(w http.ResponseWriter, r *http.Request, kind, fp string, trace int, async bool, contentType string, fill func(*job)) {
	j, err := s.attach(kind, fp, trace, async, fill)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if async {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client is gone; nothing can be written.
		s.leave(j)
		return
	}
	st := j.status()
	if st.State == JobFailed {
		writeError(w, http.StatusUnprocessableEntity, errors.New(st.Error))
		return
	}
	w.Header().Set("X-Cache", TierMiss)
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(j.resultBytes())
}

// handleTasks answers POST /v1/tasks: the distributed-sweep work unit. The
// body is one self-contained task spec; the response is the task's canonical
// record line, synchronously (a task is one engine run — the job machinery
// provides queueing, panic isolation and disconnect cancellation, not
// detachment). Task-level failures come back inside the record's error field
// with status 200, exactly as a local sweep would record them, so a
// coordinator merging remote records reproduces the local artifact
// byte-for-byte even when cells fail.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	ts, ok := parseSpec(w, r, sweep.ParseTaskSpec)
	if !ok {
		return
	}
	fp, err := ts.Fingerprint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Fingerprint", fp)
	if body, tier, ok := s.cacheGet(kindTask, fp); ok {
		w.Header().Set("X-Cache", tier)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(body)
		return
	}
	s.serveMiss(w, r, kindTask, fp, 0, false, "application/x-ndjson", func(j *job) { j.task = ts })
}

// handleCampaigns answers POST /v1/campaigns: always asynchronous — the
// response is a job resource whose stream delivers one NDJSON record per
// completed task followed by the aggregated summary. A campaign whose
// fingerprint is cached completes immediately with the memoized summary.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	c, ok := parseSpec(w, r, sweep.ParseCampaign)
	if !ok {
		return
	}
	fp, err := c.Fingerprint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Fingerprint", fp)
	if body, _, ok := s.cacheGet(kindCampaign, fp); ok {
		j := s.newJob(kindCampaign, fp, context.Background())
		j.campaign = c
		j.complete(body, true)
		s.register(j)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	s.serveMiss(w, r, kindCampaign, fp, 0, true, "", func(j *job) { j.campaign = c })
}

// handleJobs lists every retained job, oldest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobStream replays the job's NDJSON lines and follows live output
// until the job reaches a terminal state or the client disconnects.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Fingerprint", j.fingerprint)
	flusher, _ := w.(http.Flusher)
	for from := 0; ; {
		lines, next, notify, truncated, terminal := j.follow(from)
		from = next
		if truncated {
			if _, err := w.Write(truncatedLine); err != nil {
				return
			}
		}
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}
