package idx

import (
	"sync/atomic"
	"time"
)

// stageClock accumulates per-stage busy time for one read or write
// call of the block path. The fetch/decode/assemble (read) and encode/store
// (write) stages interleave freely across the worker pools, so each
// worker adds its elapsed nanoseconds into atomic accumulators and the
// entry point books the totals once — into the
// nsdf_idx_stage_seconds{stage,dataset} histograms and, when the
// request is traced, into per-stage spans. Because the accumulators sum
// busy time across workers, a stage's duration can exceed the wall time
// of the enclosing call on parallel fetches; that is the point — it
// shows where the worker pool actually spent its cycles.
//
// A nil *stageClock disables all accumulation, so untraced,
// untelemetered calls pay nothing.
type stageClock struct {
	// traced gates the per-block trace records (storage.get/storage.put):
	// they allocate attribute slices, which pure-telemetry calls skip.
	traced bool

	fetchNS    atomic.Int64
	decodeNS   atomic.Int64
	assembleNS atomic.Int64
	encodeNS   atomic.Int64
	storeNS    atomic.Int64
}

// newStageClock returns a clock when either telemetry or tracing wants
// stage timing, nil otherwise.
func (d *Dataset) newStageClock(traced bool) *stageClock {
	if d.tel == nil && !traced {
		return nil
	}
	return &stageClock{traced: traced}
}

func (sc *stageClock) fetch() time.Duration    { return time.Duration(sc.fetchNS.Load()) }
func (sc *stageClock) decode() time.Duration   { return time.Duration(sc.decodeNS.Load()) }
func (sc *stageClock) assemble() time.Duration { return time.Duration(sc.assembleNS.Load()) }
func (sc *stageClock) encode() time.Duration   { return time.Duration(sc.encodeNS.Load()) }
func (sc *stageClock) store() time.Duration    { return time.Duration(sc.storeNS.Load()) }
