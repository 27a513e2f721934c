package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/workload"
)

// durableEngine is the surface the in-process workloads drive; both
// core.Engine and shard.Engine provide it.
type durableEngine interface {
	core.Queryable
	Durable(ctx context.Context, dir string, hook durable.Hook) (bool, error)
	CloseDurable() error
}

// inproc serves a workload from an engine in the benchmark's process.
type inproc struct {
	eng durableEngine
	qs  []*cq.CQ
	// aligned reports whether a constraint's fetches route to one
	// shard; nil on a single node, where nothing scatters.
	aligned   func(rel string, x []schema.Attribute) bool
	scattered map[int][]bool
}

// newEngine builds an unloaded engine with K shards (K = 1: core.Engine).
func newEngine(k int) (durableEngine, error) {
	s, a := workload.AccidentSchema(), workload.AccidentConstraints()
	if k == 1 {
		return core.New(s, a, core.Options{})
	}
	return shard.New(s, a, shard.Options{Shards: k})
}

// openInproc is the set-up the benchmark times: engine construction,
// attaching an empty data dir, and Load.
func openInproc(k int) func(ctx context.Context, dir string, in *inputs, inst *data.Instance) (system, error) {
	return func(ctx context.Context, dir string, in *inputs, inst *data.Instance) (system, error) {
		eng, err := newEngine(k)
		if err != nil {
			return nil, err
		}
		restored, err := eng.Durable(ctx, dir, nil)
		if err != nil {
			return nil, err
		}
		if restored {
			eng.CloseDurable()
			return nil, fmt.Errorf("data dir %s is not empty", dir)
		}
		if err := eng.Load(inst); err != nil {
			eng.CloseDurable()
			return nil, err
		}
		return newInproc(eng, in), nil
	}
}

// reopenInproc recovers an engine from its data dir alone.
func reopenInproc(k int) func(ctx context.Context, dir string, in *inputs) (system, error) {
	return func(ctx context.Context, dir string, in *inputs) (system, error) {
		eng, err := newEngine(k)
		if err != nil {
			return nil, err
		}
		restored, err := eng.Durable(ctx, dir, nil)
		if err != nil {
			return nil, err
		}
		if !restored {
			eng.CloseDurable()
			return nil, fmt.Errorf("data dir %s held no state to recover", dir)
		}
		return newInproc(eng, in), nil
	}
}

func newInproc(eng durableEngine, in *inputs) *inproc {
	s := &inproc{eng: eng, scattered: make(map[int][]bool)}
	for i, p := range in.params {
		s.qs = append(s.qs, p.query(fmt.Sprintf("p%d", i)))
	}
	if se, ok := eng.(*shard.Engine); ok && se.Shards() > 1 {
		s.aligned = func(rel string, x []schema.Attribute) bool {
			return shard.AttrsEqual(se.PartitionKey(rel), x)
		}
	}
	return s
}

func (s *inproc) query(ctx context.Context, p int, traced bool) (answer, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("query")
		ctx = obs.NewContext(ctx, tr)
	}
	res, err := s.eng.Query(ctx, s.qs[p], core.WithStream())
	if err != nil {
		tr.Finish()
		return answer{}, err
	}
	var a answer
	for row := range res.Seq() {
		a.got.addRow(row)
	}
	if err := res.Err(); err != nil {
		tr.Finish()
		return answer{}, err
	}
	a.root = tr.Finish()
	a.fetched, a.keys, a.bound = res.Stats.Fetched, res.Stats.FetchKeys, -1
	if res.Bound != nil {
		a.bound = res.Bound.Fetched
	}
	if traced && s.aligned != nil && res.Plan != nil {
		a.scattered = s.scatteredSteps(p, res.Plan)
	}
	return a, nil
}

// scatteredSteps marks the fetch steps of p's plan whose constraint is
// not aligned with its relation's partition key.
func (s *inproc) scatteredSteps(p int, pl *plan.Plan) []bool {
	if sc, ok := s.scattered[p]; ok {
		return sc
	}
	sc := make([]bool, len(pl.Steps))
	for i, op := range pl.Steps {
		if f, ok := op.(plan.FetchOp); ok {
			sc[i] = !s.aligned(f.Constraint.Rel, f.Constraint.X)
		}
	}
	s.scattered[p] = sc
	return sc
}

func (s *inproc) apply(ctx context.Context, d *live.Delta, traced bool) (*obs.Span, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("apply")
		ctx = obs.NewContext(ctx, tr)
	}
	_, err := s.eng.Apply(ctx, d)
	root := tr.Finish()
	return root, err
}

func (s *inproc) cacheStats() core.CacheStats { return s.eng.CacheStats() }
func (s *inproc) rpc() rpcCounts              { return rpcCounts{} }
func (s *inproc) close() error                { return s.eng.CloseDurable() }
