package idx

import (
	"time"

	"nsdfgo/internal/telemetry"
)

// dsMetrics holds the dataset's resolved telemetry series. All fields
// are safe for concurrent use; hot paths nil-check the struct once.
type dsMetrics struct {
	blocksRead     *telemetry.Counter
	blocksCached   *telemetry.Counter
	blocksWritten  *telemetry.Counter
	bytesRead      *telemetry.Counter
	bytesWritten   *telemetry.Counter
	readRuns       *telemetry.Counter
	readsCancelled *telemetry.Counter
	readSeconds    *telemetry.Histogram
	writeSeconds   *telemetry.Histogram

	stagePlan     *telemetry.Histogram
	stageFetch    *telemetry.Histogram
	stageDecode   *telemetry.Histogram
	stageAssemble *telemetry.Histogram
	stageEncode   *telemetry.Histogram
	stageStore    *telemetry.Histogram
}

// SetTelemetry attaches a metrics registry to the dataset, labelling its
// series with the given dataset name. Subsequent reads and writes record:
//
//	nsdf_idx_blocks_read_total{dataset}     blocks fetched from the backend
//	nsdf_idx_blocks_cached_total{dataset}   blocks served by the cache
//	nsdf_idx_blocks_written_total{dataset}  blocks stored
//	nsdf_idx_bytes_read_total{dataset}      compressed bytes fetched
//	nsdf_idx_bytes_written_total{dataset}   compressed bytes stored
//	nsdf_idx_read_runs_total{dataset}       bulk tile-row copies (see ReadStats.Runs)
//	nsdf_idx_reads_cancelled_total{dataset} reads aborted by context cancellation/deadline
//	nsdf_idx_read_seconds{dataset}          ReadBox/ReadBox3D latency
//	nsdf_idx_write_seconds{dataset}         WriteGrid/WriteVolume latency
//	nsdf_idx_stage_seconds{stage,dataset}   per-stage pipeline time; stage is
//	                                        plan/fetch/decode/assemble on reads
//	                                        and plan/encode/store on writes.
//	                                        Fetch/decode/assemble/encode/store
//	                                        are busy time summed across the
//	                                        worker pool, so they can exceed the
//	                                        call's wall time.
//
// The dataset name also labels the spans the dataset records into an
// active request trace (see internal/telemetry/trace).
func (d *Dataset) SetTelemetry(reg *telemetry.Registry, dataset string) {
	d.name = dataset
	if reg == nil {
		d.tel = nil
		return
	}
	d.tel = &dsMetrics{
		blocksRead:     reg.Counter("nsdf_idx_blocks_read_total", "dataset", dataset),
		blocksCached:   reg.Counter("nsdf_idx_blocks_cached_total", "dataset", dataset),
		blocksWritten:  reg.Counter("nsdf_idx_blocks_written_total", "dataset", dataset),
		bytesRead:      reg.Counter("nsdf_idx_bytes_read_total", "dataset", dataset),
		bytesWritten:   reg.Counter("nsdf_idx_bytes_written_total", "dataset", dataset),
		readRuns:       reg.Counter("nsdf_idx_read_runs_total", "dataset", dataset),
		readsCancelled: reg.Counter("nsdf_idx_reads_cancelled_total", "dataset", dataset),
		readSeconds:    reg.Histogram("nsdf_idx_read_seconds", "dataset", dataset),
		writeSeconds:   reg.Histogram("nsdf_idx_write_seconds", "dataset", dataset),

		stagePlan:     reg.Histogram("nsdf_idx_stage_seconds", "stage", "plan", "dataset", dataset),
		stageFetch:    reg.Histogram("nsdf_idx_stage_seconds", "stage", "fetch", "dataset", dataset),
		stageDecode:   reg.Histogram("nsdf_idx_stage_seconds", "stage", "decode", "dataset", dataset),
		stageAssemble: reg.Histogram("nsdf_idx_stage_seconds", "stage", "assemble", "dataset", dataset),
		stageEncode:   reg.Histogram("nsdf_idx_stage_seconds", "stage", "encode", "dataset", dataset),
		stageStore:    reg.Histogram("nsdf_idx_stage_seconds", "stage", "store", "dataset", dataset),
	}
}

// observePlan books one planning pass into the stage histogram.
func (d *Dataset) observePlan(dur time.Duration) {
	if t := d.tel; t != nil {
		t.stagePlan.Observe(dur.Seconds())
	}
}

// observeReadStages books a read's accumulated stage times.
func (d *Dataset) observeReadStages(sc *stageClock) {
	t := d.tel
	if t == nil {
		return
	}
	t.stageFetch.Observe(sc.fetch().Seconds())
	t.stageDecode.Observe(sc.decode().Seconds())
	t.stageAssemble.Observe(sc.assemble().Seconds())
}

// observeWriteStages books a write's accumulated stage times.
func (d *Dataset) observeWriteStages(sc *stageClock) {
	t := d.tel
	if t == nil {
		return
	}
	t.stageEncode.Observe(sc.encode().Seconds())
	t.stageStore.Observe(sc.store().Seconds())
}

// recordRead books one finished box read into the dataset's telemetry.
func (d *Dataset) recordRead(stats *ReadStats) {
	t := d.tel
	if t == nil {
		return
	}
	t.blocksRead.Add(int64(stats.BlocksRead))
	t.blocksCached.Add(int64(stats.BlocksCached))
	t.bytesRead.Add(stats.BytesRead)
	t.readRuns.Add(int64(stats.Runs))
}

// recordCancelledRead books one read aborted by context cancellation or
// deadline expiry; dashboards watch this to see clients abandoning slow
// wide-area reads.
func (d *Dataset) recordCancelledRead() {
	t := d.tel
	if t == nil {
		return
	}
	t.readsCancelled.Inc()
}

// recordBlockWrite books one stored block.
func (d *Dataset) recordBlockWrite(compressedBytes int) {
	t := d.tel
	if t == nil {
		return
	}
	t.blocksWritten.Inc()
	t.bytesWritten.Add(int64(compressedBytes))
}
