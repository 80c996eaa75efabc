package jobs

import "repro/internal/telemetry"

// Metrics is the scheduler's instrumentation, registered in a
// telemetry.Registry under the "jobs." prefix, so a service
// exposing telemetry.WriteProm publishes scheduler health for free:
//
//	jobs.queue_depth   gauge      tasks accepted but not yet started
//	jobs.inflight      gauge      tasks currently executing on a worker
//	jobs.submitted     counter    Submit/TrySubmit calls accepted
//	jobs.done          counter    jobs finished successfully
//	jobs.failed        counter    jobs finished with an error (incl. timeout)
//	jobs.overloaded    counter    TrySubmit rejections (queue full)
//	jobs.coalesced     counter    submissions joined to an in-flight job
//	jobs.cache.hits    counter    submissions served from the result cache
//	jobs.cache.misses  counter    submissions that had to execute
//	jobs.cache.entries gauge      results currently cached
//	jobs.latency_us    histogram  per-job wall-clock execution time (µs)
//	jobs.queue_wait_us histogram  submit-to-dequeue wait (µs, pooled
//	                              mode only)
//
// Both histograms are fixed-bound over telemetry.LatencyBounds, so
// WriteProm exports deterministic p50/p90/p99 for each.
type Metrics struct {
	QueueDepth  *telemetry.Gauge
	InFlight    *telemetry.Gauge
	Submitted   *telemetry.Counter
	Done        *telemetry.Counter
	Failed      *telemetry.Counter
	Overloaded  *telemetry.Counter
	Coalesced   *telemetry.Counter
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
	LatencyUS   *telemetry.FixedHistogram
	QueueWaitUS *telemetry.FixedHistogram
}

// metricPrefix namespaces every scheduler metric.
const metricPrefix = "jobs."

// newMetrics binds the metric set into reg under metricPrefix and registers
// the cache-size and worker-count func gauges.
func newMetrics(reg *telemetry.Registry, cache *Cache, workers int) *Metrics {
	m := &Metrics{
		QueueDepth:  reg.Gauge(metricPrefix + "queue_depth"),
		InFlight:    reg.Gauge(metricPrefix + "inflight"),
		Submitted:   reg.Counter(metricPrefix + "submitted"),
		Done:        reg.Counter(metricPrefix + "done"),
		Failed:      reg.Counter(metricPrefix + "failed"),
		Overloaded:  reg.Counter(metricPrefix + "overloaded"),
		Coalesced:   reg.Counter(metricPrefix + "coalesced"),
		CacheHits:   reg.Counter(metricPrefix + "cache.hits"),
		CacheMisses: reg.Counter(metricPrefix + "cache.misses"),
		LatencyUS:   reg.FixedHistogram(metricPrefix+"latency_us", telemetry.LatencyBounds),
		QueueWaitUS: reg.FixedHistogram(metricPrefix+"queue_wait_us", telemetry.LatencyBounds),
	}
	reg.RegisterFunc(metricPrefix+"cache.entries", func() int64 { return int64(cache.Len()) })
	reg.RegisterFunc(metricPrefix+"workers", func() int64 { return int64(workers) })
	return m
}
