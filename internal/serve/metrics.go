package serve

import (
	"time"

	"wardrop/internal/obs"
)

// Metrics is the JSON body of GET /metrics: the service's cumulative
// counters plus run-latency percentiles over a sliding window of recent
// jobs. The document is assembled from the server's obs.Registry — the same
// instruments `GET /metrics?format=prom` exposes in Prometheus text format —
// and its shape is pinned byte-for-byte by the serve tests.
type Metrics struct {
	// JobsRun counts jobs executed by the worker pool (cache hits are not
	// jobs); JobsFailed the subset that ended failed (bad specs, panics,
	// client disconnects).
	JobsRun    int64 `json:"jobsRun"`
	JobsFailed int64 `json:"jobsFailed"`
	// EngineRuns counts simulation runs executed on behalf of jobs: one per
	// scenario job, one per completed campaign task record (duplicate-task
	// records cloned by the sweep dedup pass count as their representative).
	EngineRuns int64 `json:"engineRuns"`
	// CacheHits / CacheMisses count result-cache lookups across both tiers;
	// CacheHitRate is hits / (hits + misses), 0 before the first lookup.
	// CacheEntries is the current in-memory cache population.
	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"`
	CacheEntries int     `json:"cacheEntries"`
	// StoreHits is the subset of CacheHits served from the durable store
	// (an LRU miss promoted from disk); StorePuts counts documents written
	// through to it and StoreErrors its read/write failures (corrupt objects
	// are quarantined and counted here). StoreObjects / StoreBytes are the
	// store's current census. All zero when no -store is configured.
	StoreHits    int64 `json:"storeHits,omitempty"`
	StorePuts    int64 `json:"storePuts,omitempty"`
	StoreErrors  int64 `json:"storeErrors,omitempty"`
	StoreObjects int64 `json:"storeObjects,omitempty"`
	StoreBytes   int64 `json:"storeBytes,omitempty"`
	// QueueDepth is the number of jobs waiting for a worker right now,
	// QueueCapacity the queue bound, and QueueHighWater the deepest the
	// queue has ever been — together they say how close the service has come
	// to shedding load with 503s. JobsRunning is the number of jobs being
	// executed; Workers the pool size.
	QueueDepth      int     `json:"queueDepth"`
	QueueCapacity   int     `json:"queueCapacity"`
	QueueSaturation float64 `json:"queueSaturation"`
	QueueHighWater  int64   `json:"queueHighWater"`
	JobsRunning     int64   `json:"jobsRunning"`
	Workers         int     `json:"workers"`
	// StoreProbe mirrors the /healthz durable-tier probe outcome ("ok",
	// "disabled", or the probe error), so a metrics scrape sees the same
	// readiness signal the probe endpoint reports.
	StoreProbe string `json:"storeProbe"`
	// RunLatencyMsP50 / P99 are percentiles of wall-clock job latency over
	// the sliding sample window (0 before the first completed job).
	RunLatencyMsP50 float64 `json:"runLatencyMsP50"`
	RunLatencyMsP99 float64 `json:"runLatencyMsP99"`
}

// metrics holds the server's instruments, pre-registered in one obs.Registry
// so the hot paths only touch atomics. The run-latency window lives inside
// the serve_run_ms histogram; Quantile answers exactly over the filled part
// of the window, never over unwritten slots.
type metrics struct {
	reg *obs.Registry

	jobsRun, jobsFailed               *obs.Counter
	cacheHits, cacheMisses            *obs.Counter
	coalesced                         *obs.Counter
	storeHits, storePuts, storeErrors *obs.Counter
	queueHighWater                    *obs.Gauge
	running                           *obs.Gauge

	// Per-stage job timings: time spent waiting for a worker, executing the
	// engine, and looking a fingerprint up through the cache tiers.
	runMs, queueWaitMs, cacheLookupMs *obs.Histogram
}

func newMetrics(window int, reg *obs.Registry) *metrics {
	if window <= 0 {
		window = 512
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		reg:            reg,
		jobsRun:        reg.Counter("serve_jobs_total", "jobs executed by the worker pool"),
		jobsFailed:     reg.Counter("serve_jobs_failed_total", "jobs that ended failed"),
		cacheHits:      reg.Counter("serve_cache_hits_total", "result-cache hits across both tiers"),
		cacheMisses:    reg.Counter("serve_cache_misses_total", "result-cache misses that scheduled work"),
		coalesced:      reg.Counter("serve_coalesced_total", "requests attached to an in-flight job"),
		storeHits:      reg.Counter("serve_store_hits_total", "cache hits served from the durable store"),
		storePuts:      reg.Counter("serve_store_puts_total", "result documents written through to the store"),
		storeErrors:    reg.Counter("serve_store_errors_total", "durable-store read/write failures"),
		queueHighWater: reg.Gauge("serve_queue_high_water", "deepest the job queue has ever been"),
		running:        reg.Gauge("serve_jobs_running", "jobs currently executing"),
		runMs:          reg.HistogramWindow("serve_run_ms", "job wall-clock latency, milliseconds", nil, window),
		queueWaitMs:    reg.Histogram("serve_queue_wait_ms", "time jobs wait for a worker, milliseconds", nil),
		cacheLookupMs:  reg.Histogram("serve_cache_lookup_ms", "fingerprint lookup latency across cache tiers, milliseconds", nil),
	}
}

// ms converts a duration to float64 milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jobsRunning reports the number of jobs currently executing.
func (m *metrics) jobsRunning() int64 { return int64(m.running.Value()) }

// noteQueueDepth ratchets the queue high-water mark up to depth.
func (m *metrics) noteQueueDepth(depth int64) { m.queueHighWater.SetMax(float64(depth)) }

// observe records one job's wall-clock latency.
func (m *metrics) observe(d time.Duration) { m.runMs.Observe(ms(d)) }

// percentiles returns the p50/p99 job latency over the window using the
// nearest-rank rule.
func (m *metrics) percentiles() (p50, p99 float64) {
	return m.runMs.Quantile(0.50), m.runMs.Quantile(0.99)
}
