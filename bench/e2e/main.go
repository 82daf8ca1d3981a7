// Command e2e is the repository's one benchmark. It stands the serving
// stack up in-process over loopback HTTP, drives one workload against it
// with closed-loop clients, checks every response against the source
// data, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced replay). See ../README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of cohort_warm, explore_cold, render_preview, ingest_convert")
	seed := fs.Uint64("seed", 1, "request-list seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 replays a prefix with span recording and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the store nodes' files")
	out := fs.String("out", "", "append the full result (provenance, metrics, budget) to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files: e2e -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: e2e -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	runtime.GOMAXPROCS(procs)
	opt := runOptions{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced != 0,
		Workdir: *workdir, Sizes: benchSizes,
	}
	rep, err := execute(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if *out != "" {
		if err := rep.appendTo(*out); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "e2e: failed op:", e)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is what -out records for one run: the driver's result line
// plus where and how it was measured.
type report struct {
	result
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Ops         int                `json:"ops"`
	WallSeconds float64            `json:"wall_s"`
	Budget      map[string]float64 `json:"budget_ms_per_req,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// execute performs one run.
func execute(ctx context.Context, opt runOptions) (*report, error) {
	if !slices.Contains(workloadNames, opt.Workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", opt.Workload, workloadNames)
	}
	h, err := newHarness(ctx, opt)
	if err != nil {
		return nil, err
	}
	defer h.close()
	rep := &report{Workload: opt.Workload, Seed: opt.Seed, Trace: opt.Trace, Fingerprint: takeFingerprint()}
	var p *phase
	if opt.Trace {
		p, err = h.traced(ctx, rep)
		if err != nil {
			return nil, err
		}
	} else {
		win := window{length: time.Duration(opt.Seconds * float64(time.Second))}
		if opt.Workload == ingestConvert {
			p = h.driveIngest(ctx, win, false)
		} else {
			streams, err := genStreams(opt.Workload, opt.Sizes, opt.Seed, listStreams)
			if err != nil {
				return nil, err
			}
			p = h.drive(ctx, streams, win, false)
		}
		rep.Metrics = h.endToEnd(p)
	}
	rep.Attempted, rep.Failed = p.attempted, p.failed
	rep.Correct = p.failed == 0 && p.attempted > 0
	rep.Ops, rep.WallSeconds, rep.Errors = p.ok(), p.wall, p.errs
	return rep, nil
}

// listStreams is the length of the generated request list; a run that
// outlasts it starts over from the top.
const listStreams = 4096

func (r *report) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
