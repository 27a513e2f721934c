package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/obs"
)

// config is one run's settings.
type config struct {
	dir     string
	seed    int64
	seconds time.Duration
	traced  bool
}

// spec is one workload: its inputs and how to stand up the system.
type spec struct {
	name string
	// hot is the number of query parameters cycled (0: every pair).
	hot int
	// queriesPerApply is the write schedule: one delta after every
	// queriesPerApply queries, in the same loop.
	queriesPerApply int
	// epochRounds is the length of an epoch in rounds (see run).
	epochRounds int
	// open builds the system over empty data dirs under dir and loads
	// the instance; reopen restarts it over the same dirs.
	open   func(ctx context.Context, dir string, in *inputs, inst *data.Instance) (system, error)
	reopen func(ctx context.Context, dir string, in *inputs) (system, error)
}

// answer is what one query returned, as the client saw it.
type answer struct {
	got     digest
	fetched int64
	keys    int64
	// bound is the plan's static access bound; -1 when the query was
	// not answered by a bounded plan.
	bound int64
	// root is the request's span tree (traced runs only).
	root *obs.Span
	// serverElapsed and respBytes come from the HTTP frontend only.
	serverElapsed time.Duration
	respBytes     int64
	// scattered marks plan steps whose fetch scatters to every shard.
	scattered []bool
}

// system is a stood-up engine (or fleet) the client loop drives.
type system interface {
	query(ctx context.Context, p int, traced bool) (answer, error)
	// apply applies d and, on a traced run, returns the apply's span
	// tree.
	apply(ctx context.Context, d *live.Delta, traced bool) (*obs.Span, error)
	cacheStats() core.CacheStats
	// rpc returns the coordinator's RPC counters (zero off the fleet).
	rpc() rpcCounts
	close() error
}

// run is the single closed-loop client of one benchmark run. A run is a
// sequence of epochs. Each epoch sets up a fresh system from an empty
// data dir (timed, setupsPerEpoch times), warms it, then runs exactly
// epochRounds timed rounds; a round is queriesPerApply queries, cycling
// over the parameters, then one delta from the stream. Each operation
// waits for the previous one. The oracle checks the epoch's answers
// before the next epoch starts. Whole epochs run until the timed rounds
// have taken --seconds.
//
// Epochs keep the state the system serves from the same in every run:
// the program's per-apply cost grows with the number of applies since
// the load, so a run measured on one long-lived system would report a
// faster program, which gets further, as a slower one.
type run struct {
	w   *spec
	in  *inputs
	dir string // the run's scratch dir

	// The current epoch: its system, data dir and delta stream.
	sys    system
	data   string
	stream interface{ Next() *live.Delta }
	next   int // next parameter
	// applied counts acknowledged deltas; sent counts deltas taken from
	// the stream; refused holds the stream positions of deltas the
	// program refused, which the oracle skips.
	applied, sent int
	refused       []int
	recs          []record
	// final is the oracle's answer to every parameter at the end of the
	// current epoch.
	final []digest

	attempted, failed int64
	chk               check
	overBound         int64
	epochs            int
	setupTimes        []float64
	// fetched, queryLat and applyLat cover untraced timed operations.
	fetched            int64
	queryLat, applyLat []float64
	layers             layers
	walBytes           int64
	cacheHits, misses  int64

	// footprint is the live heap and the data dirs' size at the end of
	// the first epoch; snapshot, when set, is where the data dirs are
	// copied at that point for timeRecovery.
	footprint *footprint
	snapshot  string
}

// runWorkload runs one workload: the epochs, a restart of the last
// epoch's system over its data dirs, and the metrics.
func runWorkload(ctx context.Context, w *spec, cfg config) (*result, error) {
	r := &run{w: w, in: newInputs(cfg.seed, w.hot), dir: cfg.dir}
	r.layers.sampling = cfg.traced
	if cfg.traced {
		r.snapshot = filepath.Join(cfg.dir, "fixed-point")
	}
	defer func() {
		if r.sys != nil {
			r.sys.close()
		}
	}()
	var plain, traced segment
	var err error
	if !cfg.traced {
		plain, err = r.epochsFor(ctx, cfg.seconds, false)
	} else {
		// Half the time untraced, for the Go runtime figures and the
		// throughput tracing is compared against; half traced, for the
		// spans.
		if plain, err = r.epochsFor(ctx, cfg.seconds/2, false); err == nil {
			traced, err = r.epochsFor(ctx, cfg.seconds/2, true)
		}
	}
	if err != nil {
		return nil, err
	}

	// Restart the last epoch's system over its data dirs and ask every
	// parameter again: every acknowledged write must have survived.
	err = r.sys.close()
	r.sys = nil
	if err != nil {
		return nil, err
	}
	var recovery float64
	if r.snapshot != "" {
		if recovery, err = timeRecovery(ctx, w, r.in, r.snapshot); err != nil {
			return nil, err
		}
	}
	lost, err := r.lostAfterReopen(ctx)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s: %d epochs, %d timed queries, %d timed applies\n",
		w.name, r.epochs, plain.queries+traced.queries, plain.applies+traced.applies)
	if r.chk.wrong > 0 || r.chk.overFetched > 0 || lost > 0 || r.overBound > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong answers, %d queries over their fetch budget, %d over their static bound, %d parameters differ after reopen\n",
			w.name, r.chk.wrong, r.chk.overFetched, r.overBound, lost)
	}
	res := &result{
		Correct:   r.chk.wrong == 0 && r.chk.overFetched == 0 && lost == 0 && r.overBound == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !cfg.traced {
		put("setup_s", median(r.setupTimes), "s")
		put("ops_per_s", plain.opsPerSec(), "1/s")
		put("query_p50_ms", quantile(r.queryLat, 0.5), "ms")
		put("query_p90_ms", quantile(r.queryLat, 0.9), "ms")
		put("apply_p50_ms", quantile(r.applyLat, 0.5), "ms")
		put("apply_p90_ms", quantile(r.applyLat, 0.9), "ms")
		put("fetched_per_query", float64(r.fetched)/float64(plain.queries), "tuples")
		put("heap_mb", float64(r.footprint.heap)/(1<<20), "MB")
		put("disk_mb", float64(r.footprint.disk)/(1<<20), "MB")
		return res, nil
	}
	r.layers.put(put, plain, r.cacheHits, r.misses)
	put("durable.wal_bytes_per_apply", float64(r.walBytes)/float64(plain.applies+traced.applies), "bytes")
	put("durable.recovery_s", recovery, "s")
	put("trace.overhead_pct", 100*(1-traced.opsPerSec()/plain.opsPerSec()), "%")
	return res, nil
}

// lostAfterReopen restarts the system over the last epoch's data dirs
// and counts the parameters whose answer differs from the oracle's.
func (r *run) lostAfterReopen(ctx context.Context) (int, error) {
	re, err := r.w.reopen(ctx, r.data, r.in)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	lost := 0
	for p := range r.in.params {
		a, err := re.query(ctx, p, false)
		if err != nil {
			re.close()
			return 0, fmt.Errorf("query after reopen: %w", err)
		}
		if a.got != r.final[p] {
			lost++
		}
	}
	return lost, re.close()
}

// segment is one timed stretch of the loop.
type segment struct {
	queries, applies int64
	elapsed          time.Duration
}

func (s segment) opsPerSec() float64 {
	return float64(s.queries+s.applies) / s.elapsed.Seconds()
}

func (s *segment) add(o segment) {
	s.queries += o.queries
	s.applies += o.applies
	s.elapsed += o.elapsed
}

// epochsFor runs whole epochs until their timed rounds have taken d.
// With spans set every request carries an obs trace; without, a traced
// run samples the Go runtime's allocation and GC counters instead.
func (r *run) epochsFor(ctx context.Context, d time.Duration, spans bool) (segment, error) {
	var total segment
	for total.elapsed < d {
		seg, err := r.epoch(ctx, spans)
		if err != nil {
			return total, err
		}
		total.add(seg)
	}
	return total, nil
}

// setupsPerEpoch is how many times an epoch sets up; it keeps the last
// system. setup_s is the median over all of a run's set-ups.
const setupsPerEpoch = 3

// epoch closes the previous epoch's system, sets up a fresh one, warms
// it, runs the timed rounds and checks the epoch's answers.
func (r *run) epoch(ctx context.Context, spans bool) (segment, error) {
	r.data = filepath.Join(r.dir, "data")
	for i := 0; i < setupsPerEpoch; i++ {
		if r.sys != nil {
			err := r.sys.close()
			r.sys = nil
			if err != nil {
				return segment{}, err
			}
		}
		if err := os.RemoveAll(r.data); err != nil {
			return segment{}, err
		}
		acc, err := r.in.generate()
		if err != nil {
			return segment{}, err
		}
		// Set-up: construction and Load of the generated instance;
		// generating it is not timed.
		runtime.GC()
		start := time.Now()
		r.sys, err = r.w.open(ctx, r.data, r.in, acc.Instance)
		elapsed := time.Since(start)
		if err != nil {
			return segment{}, fmt.Errorf("set-up: %w", err)
		}
		r.setupTimes = append(r.setupTimes, elapsed.Seconds())
	}
	r.epochs++

	acc, err := r.in.generate()
	if err != nil {
		return segment{}, err
	}
	st, err := r.in.stream(acc)
	if err != nil {
		return segment{}, err
	}
	r.stream, r.next, r.applied, r.sent, r.refused, r.recs = st, 0, 0, 0, nil, r.recs[:0]
	if err := r.warm(ctx); err != nil {
		return segment{}, err
	}

	wal0, cache0 := dirBytes(r.data, "wal.log"), r.sys.cacheStats()
	seg := r.rounds(ctx, spans)
	cache1 := r.sys.cacheStats()
	r.walBytes += dirBytes(r.data, "wal.log") - wal0
	r.cacheHits += cache1.Hits - cache0.Hits
	r.misses += cache1.Misses - cache0.Misses

	if r.footprint == nil {
		if err := r.measureFootprint(); err != nil {
			return segment{}, err
		}
	}
	// The oracle checks every answer, and every query's fetched count,
	// outside the timed rounds.
	chk, final, err := verify(r.in, r.recs, r.sent, r.refused)
	if err != nil {
		return segment{}, err
	}
	r.chk.wrong += chk.wrong
	r.chk.overFetched += chk.overFetched
	r.final = final
	return seg, nil
}

// footprint is the live heap and the bytes in the data dirs.
type footprint struct{ heap, disk int64 }

// measureFootprint forces a GC and records the live heap, less the
// client's own records and latency samples, and the bytes in the data
// dirs. On a traced run it also copies the data dirs to r.snapshot for
// timeRecovery. It is taken once, at the end of the first epoch, a
// fixed point of every run: heap, disk and recovery time all grow with
// the applies since the load.
func (r *run) measureFootprint() error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := cap(r.recs)*int(unsafe.Sizeof(record{})) + (cap(r.queryLat)+cap(r.applyLat))*8
	r.footprint = &footprint{heap: int64(ms.HeapAlloc) - int64(own), disk: dirBytes(r.data, "")}
	if r.snapshot == "" {
		return nil
	}
	// The client is single-threaded and every acknowledged apply is
	// fsynced, so between two operations the files are a consistent
	// state.
	return copyDir(r.data, r.snapshot)
}

// recoveries is how many times timeRecovery reopens the fixed-point
// copy; it reports the median.
const recoveries = 3

// timeRecovery times w.reopen over fresh copies of the data dirs taken
// at the fixed point, and returns the median in seconds.
func timeRecovery(ctx context.Context, w *spec, in *inputs, src string) (float64, error) {
	var times []float64
	for i := 0; i < recoveries; i++ {
		dir := fmt.Sprintf("%s-%d", src, i)
		if err := copyDir(src, dir); err != nil {
			return 0, err
		}
		start := time.Now()
		re, err := w.reopen(ctx, dir, in)
		elapsed := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("reopen at the fixed point: %w", err)
		}
		times = append(times, elapsed.Seconds())
		if err := re.close(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// warm queries every parameter once (filling the plan cache, and on the
// fleet asking each parameter's static bound) and applies two deltas.
func (r *run) warm(ctx context.Context) error {
	for range r.in.params {
		if err := r.query(ctx, false, false); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	// The first applies after a load pay one-off costs; take them here.
	for i := 0; i < 2; i++ {
		if err := r.apply(ctx, false, false); err != nil {
			return fmt.Errorf("warm-up apply: %w", err)
		}
	}
	return nil
}

// rounds runs the epoch's timed rounds. A failed operation is counted
// and the loop goes on.
func (r *run) rounds(ctx context.Context, spans bool) segment {
	sample := r.layers.sampling && !spans
	runtime.GC()
	gc0 := gcCycles()
	var seg segment
	start := time.Now()
	for round := 0; round < r.w.epochRounds; round++ {
		for i := 0; i < r.w.queriesPerApply; i++ {
			r.attempted++
			a0 := allocBytes(sample)
			if err := r.query(ctx, true, spans); err != nil {
				r.failed++
				continue
			}
			r.layers.allocQuery += allocBytes(sample) - a0
			seg.queries++
		}
		r.attempted++
		a0 := allocBytes(sample)
		if err := r.apply(ctx, true, spans); err != nil {
			r.failed++
			continue
		}
		r.layers.allocApply += allocBytes(sample) - a0
		seg.applies++
	}
	seg.elapsed = time.Since(start)
	if sample {
		r.layers.gcCycles += gcCycles() - gc0
	}
	return seg
}

// query serves the next parameter and records the answer for the
// oracle; untraced timed queries feed the end-to-end metrics.
func (r *run) query(ctx context.Context, timed, traced bool) error {
	p := r.next
	r.next = (r.next + 1) % len(r.in.params)
	rpc0 := r.sys.rpc()
	start := time.Now()
	a, err := r.sys.query(ctx, p, traced)
	lat := time.Since(start)
	if err != nil {
		return err
	}
	r.recs = append(r.recs, record{param: int32(p), applied: int32(r.applied), got: a.got, fetched: a.fetched})
	if a.bound < 0 || a.fetched > a.bound {
		r.overBound++
	}
	switch {
	case timed && traced:
		r.layers.addQuery(a, lat, r.sys.rpc().sub(rpc0))
	case timed:
		r.fetched += a.fetched
		r.queryLat = append(r.queryLat, ms(lat))
	}
	return nil
}

// apply sends the stream's next delta.
func (r *run) apply(ctx context.Context, timed, traced bool) error {
	d := r.stream.Next()
	r.sent++
	rpc0 := r.sys.rpc()
	start := time.Now()
	root, err := r.sys.apply(ctx, d, traced)
	lat := time.Since(start)
	if err != nil {
		r.refused = append(r.refused, r.sent-1)
		return fmt.Errorf("apply %d: %w", r.sent, err)
	}
	r.applied++
	switch {
	case timed && traced:
		r.layers.addApply(root, d.Len(), r.sys.rpc().sub(rpc0))
	case timed:
		r.applyLat = append(r.applyLat, ms(lat))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocBytes reads the process's cumulative heap allocation when
// sample is set, and returns 0 otherwise.
func allocBytes(sample bool) int64 {
	if !sample {
		return 0
	}
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return int64(s[0].Value.Uint64())
}

// gcCycles reads the number of completed GC cycles.
func gcCycles() int64 {
	s := [1]metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	return int64(s[0].Value.Uint64())
}

// quantile is the q-quantile of xs by the exclusive method, the
// default of Python's statistics.quantiles: position q·(n+1) among the
// sorted values, interpolated linearly and clamped to the inner pairs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// dirBytes sums the sizes of the regular files under dir, or of those
// called name when name is not empty.
func dirBytes(dir, name string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && (name == "" || d.Name() == name) {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(to, 0o755)
		case d.Type().IsRegular():
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(to, b, 0o644)
		}
		return fmt.Errorf("copy %s: not a regular file", path)
	})
}
