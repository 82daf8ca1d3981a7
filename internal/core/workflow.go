// Package core is the paper's primary contribution as a library: the
// integration layer that lets users "combine their application components
// with NSDF services to create a modular workflow" (tutorial goal 1,
// Fig. 1). It provides a dependency-ordered workflow engine with
// provenance trails, a Fabric facade wiring the storage, catalog, cache,
// and query services together, and a prebuilt instance of the tutorial's
// four-step workflow (Fig. 4): data generation → conversion to IDX →
// static validation → interactive visualization.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Step is one modular unit of a workflow.
type Step struct {
	// Name identifies the step; it must be unique within a workflow.
	Name string
	// Needs lists the names of steps that must complete first.
	Needs []string
	// Run executes the step. It receives the workflow's shared context
	// blackboard for exchanging artifacts with other steps.
	Run func(ctx context.Context, wc *Blackboard) error
}

// Blackboard is the typed key/value space steps use to pass artifacts
// (grids, datasets, DOIs) down the workflow. It is safe for concurrent
// use.
type Blackboard struct {
	mu     sync.RWMutex
	values map[string]any
}

// NewBlackboard returns an empty blackboard.
func NewBlackboard() *Blackboard {
	return &Blackboard{values: make(map[string]any)}
}

// Put stores value under key, replacing any previous value.
func (b *Blackboard) Put(key string, value any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.values[key] = value
}

// Get returns the value under key.
func (b *Blackboard) Get(key string) (any, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.values[key]
	return v, ok
}

// Keys returns the stored keys, sorted; the provenance trail records them.
func (b *Blackboard) Keys() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.values))
	for k := range b.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Fetch retrieves a typed artifact from the blackboard.
func Fetch[T any](b *Blackboard, key string) (T, error) {
	var zero T
	v, ok := b.Get(key)
	if !ok {
		return zero, fmt.Errorf("core: workflow artifact %q missing", key)
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("core: workflow artifact %q has type %T, want %T", key, v, zero)
	}
	return t, nil
}

// StepStatus is the outcome of one step execution.
type StepStatus string

// Step outcomes recorded in the provenance trail.
const (
	StatusOK      StepStatus = "ok"
	StatusFailed  StepStatus = "failed"
	StatusSkipped StepStatus = "skipped"
)

// StepRecord is one provenance entry.
type StepRecord struct {
	// Step is the step name.
	Step string
	// Status is the outcome.
	Status StepStatus
	// Started and Elapsed time the execution.
	Started time.Time
	Elapsed time.Duration
	// Err holds the failure message for failed steps.
	Err string
	// Artifacts lists the blackboard keys present after the step,
	// recording data lineage through the workflow.
	Artifacts []string
}

// Trail is the workflow's provenance record ("record trails and data
// provenance" in the tutorial's companion work).
type Trail struct {
	// Records are per-step entries in execution order.
	Records []StepRecord
}

// String renders the trail as a fixed-width provenance table.
func (t *Trail) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-8s %-12s %s\n", "step", "status", "elapsed", "artifacts")
	for _, r := range t.Records {
		fmt.Fprintf(&sb, "%-14s %-8s %-12s %s\n", r.Step, r.Status, r.Elapsed.Round(time.Microsecond), strings.Join(r.Artifacts, ","))
		if r.Err != "" {
			fmt.Fprintf(&sb, "  error: %s\n", r.Err)
		}
	}
	return sb.String()
}

// MarshalJSON renders the trail as a machine-readable provenance record
// suitable for archival next to the data products.
func (t *Trail) MarshalJSON() ([]byte, error) {
	type rec struct {
		Step      string   `json:"step"`
		Status    string   `json:"status"`
		Started   string   `json:"started,omitempty"`
		ElapsedMS float64  `json:"elapsed_ms"`
		Err       string   `json:"error,omitempty"`
		Artifacts []string `json:"artifacts,omitempty"`
	}
	out := make([]rec, len(t.Records))
	for i, r := range t.Records {
		out[i] = rec{
			Step:      r.Step,
			Status:    string(r.Status),
			ElapsedMS: float64(r.Elapsed) / 1e6,
			Err:       r.Err,
			Artifacts: r.Artifacts,
		}
		if !r.Started.IsZero() {
			out[i].Started = r.Started.UTC().Format(time.RFC3339Nano)
		}
	}
	return json.Marshal(map[string]any{"records": out, "failed": t.Failed()})
}

// Failed reports whether any step failed.
func (t *Trail) Failed() bool {
	for _, r := range t.Records {
		if r.Status == StatusFailed {
			return true
		}
	}
	return false
}

// Workflow is an ordered collection of steps with dependencies.
type Workflow struct {
	steps []Step
}

// NewWorkflow returns an empty workflow.
func NewWorkflow() *Workflow { return &Workflow{} }

// Add appends a step. Steps may be added in any order; Run resolves
// dependencies.
func (w *Workflow) Add(s Step) *Workflow {
	w.steps = append(w.steps, s)
	return w
}

// order topologically sorts the steps, preferring insertion order among
// ready steps so runs are deterministic. It rejects duplicate names,
// unknown dependencies, and cycles.
func (w *Workflow) order() ([]*Step, error) {
	byName := make(map[string]*Step, len(w.steps))
	for i := range w.steps {
		s := &w.steps[i]
		if s.Name == "" {
			return nil, fmt.Errorf("core: step %d has no name", i)
		}
		if s.Run == nil {
			return nil, fmt.Errorf("core: step %q has no Run function", s.Name)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("core: duplicate step %q", s.Name)
		}
		byName[s.Name] = s
	}
	indeg := make(map[string]int, len(w.steps))
	for _, s := range w.steps {
		for _, need := range s.Needs {
			if _, ok := byName[need]; !ok {
				return nil, fmt.Errorf("core: step %q needs unknown step %q", s.Name, need)
			}
			indeg[s.Name]++
		}
	}
	var out []*Step
	done := make(map[string]bool, len(w.steps))
	for len(out) < len(w.steps) {
		progressed := false
		for i := range w.steps {
			s := &w.steps[i]
			if done[s.Name] {
				continue
			}
			ready := true
			for _, need := range s.Needs {
				if !done[need] {
					ready = false
					break
				}
			}
			if ready {
				out = append(out, s)
				done[s.Name] = true
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("core: dependency cycle among steps")
		}
	}
	return out, nil
}

// Run executes the workflow steps in dependency order on a fresh
// blackboard, recording a provenance trail. The first failing step aborts
// the run; the remaining steps are recorded as skipped. The blackboard is
// returned for artifact inspection even on failure.
func (w *Workflow) Run(ctx context.Context) (*Blackboard, *Trail, error) {
	ordered, err := w.order()
	if err != nil {
		return nil, nil, err
	}
	bb := NewBlackboard()
	trail := &Trail{}
	var failure error
	for _, s := range ordered {
		if failure != nil {
			trail.Records = append(trail.Records, StepRecord{Step: s.Name, Status: StatusSkipped})
			continue
		}
		if err := ctx.Err(); err != nil {
			failure = err
			trail.Records = append(trail.Records, StepRecord{Step: s.Name, Status: StatusSkipped, Err: err.Error()})
			continue
		}
		rec := StepRecord{Step: s.Name, Started: time.Now()}
		err := s.Run(ctx, bb)
		rec.Elapsed = time.Since(rec.Started)
		rec.Artifacts = bb.Keys()
		if err != nil {
			rec.Status = StatusFailed
			rec.Err = err.Error()
			failure = fmt.Errorf("core: step %q: %w", s.Name, err)
		} else {
			rec.Status = StatusOK
		}
		trail.Records = append(trail.Records, rec)
	}
	return bb, trail, failure
}
