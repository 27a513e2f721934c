package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/value"
	"repro/internal/workload"
)

// engineAnswers loads a fresh engine and returns its rows for every
// parameter, after the first applied deltas of the stream.
func engineAnswers(t *testing.T, in *inputs, applied int) [][]data.Tuple {
	rows, _ := engineRun(t, in, applied)
	return rows
}

// engineRun is engineAnswers that also returns each query's
// Stats.Fetched.
func engineRun(t *testing.T, in *inputs, applied int) ([][]data.Tuple, []int64) {
	t.Helper()
	acc, err := in.generate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(workload.AccidentSchema(), workload.AccidentConstraints(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	acc, err = in.generate()
	if err != nil {
		t.Fatal(err)
	}
	st, err := in.stream(acc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < applied; i++ {
		if _, err := eng.Apply(ctx, st.Next()); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]data.Tuple, len(in.params))
	fetched := make([]int64, len(in.params))
	for i, p := range in.params {
		res, err := eng.Query(ctx, p.query("q"))
		if err != nil {
			t.Fatal(err)
		}
		rows[i], fetched[i] = res.Rows, res.Stats.Fetched
	}
	return rows, fetched
}

func digestOf(rows []data.Tuple) digest {
	var d digest
	for _, r := range rows {
		d.addRow(r)
	}
	return d
}

// records builds one record per parameter, all after applied deltas.
func records(answers [][]data.Tuple, applied int) []record {
	recs := make([]record, len(answers))
	for i, rows := range answers {
		recs[i] = record{param: int32(i), applied: int32(applied), got: digestOf(rows)}
	}
	return recs
}

func TestOracleAcceptsEngineAnswers(t *testing.T) {
	in := newInputs(3, 0)
	for _, applied := range []int{0, 1, 3} {
		rows, fetched := engineRun(t, in, applied)
		recs := records(rows, applied)
		for i := range recs {
			recs[i].fetched = fetched[i]
		}
		chk, final, err := verify(in, recs, applied, nil)
		if err != nil {
			t.Fatal(err)
		}
		if chk.wrong != 0 || chk.overFetched != 0 {
			t.Fatalf("after %d deltas: %d correct answers rejected, %d bounded fetch counts rejected", applied, chk.wrong, chk.overFetched)
		}
		if len(final) != len(in.params) {
			t.Fatalf("final answers for %d of %d parameters", len(final), len(in.params))
		}
	}
}

func TestOracleRejectsDroppedAndAddedRows(t *testing.T) {
	in := newInputs(3, 0)
	answers := engineAnswers(t, in, 0)
	p := -1
	for i, rows := range answers {
		if len(rows) >= 2 {
			p = i
			break
		}
	}
	if p < 0 {
		t.Fatal("no parameter with two or more answer rows")
	}
	good := answers[p]

	answers[p] = good[1:]
	if chk, _, err := verify(in, records(answers, 0), 0, nil); err != nil || chk.wrong != 1 {
		t.Fatalf("one row dropped: wrong=%d err=%v, want 1 wrong", chk.wrong, err)
	}

	// An age no vehicle has.
	answers[p] = append(good[:len(good):len(good)], data.Tuple{value.NewInt(-1)})
	if chk, _, err := verify(in, records(answers, 0), 0, nil); err != nil || chk.wrong != 1 {
		t.Fatalf("one row added: wrong=%d err=%v, want 1 wrong", chk.wrong, err)
	}
}

func TestOracleRejectsStaleRead(t *testing.T) {
	in := newInputs(3, 0)
	before := engineAnswers(t, in, 0)
	after := engineAnswers(t, in, 1)
	changed := 0
	for i := range before {
		if digestOf(before[i]) != digestOf(after[i]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the first delta changes no answer; the test needs one it does")
	}
	// Every answer read after the acknowledged write, but showing the
	// state before it.
	chk, _, err := verify(in, records(before, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chk.wrong != changed {
		t.Fatalf("stale reads: %d rejected, want %d", chk.wrong, changed)
	}
}

// TestOracleRejectsUnboundedFetch reports a fetched count that reads
// every tuple of the instance, as a plan that fell back to scanning
// would, for one parameter.
func TestOracleRejectsUnboundedFetch(t *testing.T) {
	in := newInputs(3, 0)
	rows, fetched := engineRun(t, in, 0)
	acc, err := in.generate()
	if err != nil {
		t.Fatal(err)
	}
	recs := records(rows, 0)
	for i := range recs {
		recs[i].fetched = fetched[i]
	}
	recs[0].fetched = int64(acc.Instance.Size())
	chk, _, err := verify(in, recs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chk.wrong != 0 || chk.overFetched != 1 {
		t.Fatalf("one scan-sized fetch: wrong=%d overFetched=%d, want 0 and 1", chk.wrong, chk.overFetched)
	}
}
