package idx

import (
	"time"

	"nsdfgo/internal/telemetry"
)

// dsMetrics holds the dataset's resolved telemetry series. All fields
// are safe for concurrent use; hot paths nil-check the struct once.
type dsMetrics struct {
	readsCancelled *telemetry.Counter
	readSeconds    *telemetry.Histogram
	writeSeconds   *telemetry.Histogram

	stagePlan     *telemetry.Histogram
	stageDecode   *telemetry.Histogram
	stageAssemble *telemetry.Histogram
	stageEncode   *telemetry.Histogram
}

// SetTelemetry attaches a metrics registry to the dataset, labelling its
// series with the given dataset name. Subsequent reads and writes record
// what only the dataset knows:
//
//	nsdf_idx_reads_cancelled_total{dataset} reads aborted by context cancellation/deadline
//	nsdf_idx_read_seconds{dataset}          ReadBox/ReadBox3D latency
//	nsdf_idx_write_seconds{dataset}         WriteGrid/WriteVolume latency
//	nsdf_idx_stage_seconds{stage,dataset}   per-stage pipeline time; stage is
//	                                        plan/decode/assemble on reads
//	                                        and plan/encode on writes.
//	                                        Decode/assemble/encode are busy
//	                                        time summed across the worker
//	                                        pool, so they can exceed the
//	                                        call's wall time.
//
// Blocks and bytes moved are counted once, by the storage.Instrumented
// store under the backend, and cache hits by the cache (cache.Tiered).
// The dataset name also labels the spans the dataset records into an
// active request trace (see internal/telemetry/trace).
func (d *Dataset) SetTelemetry(reg *telemetry.Registry, dataset string) {
	d.name = dataset
	if reg == nil {
		d.tel = nil
		return
	}
	d.tel = &dsMetrics{
		readsCancelled: reg.Counter("nsdf_idx_reads_cancelled_total", "dataset", dataset),
		readSeconds:    reg.Histogram("nsdf_idx_read_seconds", "dataset", dataset),
		writeSeconds:   reg.Histogram("nsdf_idx_write_seconds", "dataset", dataset),

		stagePlan:     reg.Histogram("nsdf_idx_stage_seconds", "stage", "plan", "dataset", dataset),
		stageDecode:   reg.Histogram("nsdf_idx_stage_seconds", "stage", "decode", "dataset", dataset),
		stageAssemble: reg.Histogram("nsdf_idx_stage_seconds", "stage", "assemble", "dataset", dataset),
		stageEncode:   reg.Histogram("nsdf_idx_stage_seconds", "stage", "encode", "dataset", dataset),
	}
}

// observePlan books one planning pass into the stage histogram.
func (d *Dataset) observePlan(dur time.Duration) {
	if t := d.tel; t != nil {
		t.stagePlan.Observe(dur.Seconds())
	}
}

// observeRead books one finished box read: its stage times and its
// latency since start.
func (d *Dataset) observeRead(sc *stageClock, start time.Time) {
	if t := d.tel; t != nil {
		t.stageDecode.Observe(sc.decode().Seconds())
		t.stageAssemble.Observe(sc.assemble().Seconds())
		t.readSeconds.ObserveSince(start)
	}
}

// recordCancelledRead books one read aborted by context cancellation or
// deadline expiry; dashboards watch this to see clients abandoning slow
// wide-area reads.
func (d *Dataset) recordCancelledRead() {
	if t := d.tel; t != nil {
		t.readsCancelled.Inc()
	}
}
