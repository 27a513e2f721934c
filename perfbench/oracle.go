package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/value"
	"repro/internal/workload"
)

// inputs derives everything a run feeds the program from one seed: the
// accident instance, the Q0-family query parameters and the delta
// stream. Every piece is regenerated on demand, so the oracle replays
// exactly what the program was given without the run holding a copy.
type inputs struct {
	seed int64
	// hot is how many (district, date) parameters the workload cycles
	// over; 0 means every district on every day plus the stream's date.
	hot int
	// params are the (district, date) pairs, in the order queries cycle.
	params []param
}

// param is one Q0-family query instance.
type param struct {
	district, date string
}

// Fixed shape of the generated instance and of each delta.
const (
	days            = 50
	accidentsPerDay = 40
	maxVehicles     = 6
	// streamInserts and streamDeletes size each AccidentStream delta.
	// Equal counts keep |D| flat across a run, so the last apply of a
	// long run costs what the first one did, and the stream keeps
	// writing to one date that the parameters name.
	streamInserts = 5
	streamDeletes = 5
	// streamParams is how many hot parameters name the stream's date.
	streamParams = 4
)

func newInputs(seed int64, hot int) *inputs {
	in := &inputs{seed: seed, hot: hot}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	// The stream writes to the first date the generator left empty.
	streamDate := workload.DateName(days)
	if hot == 0 {
		for day := 0; day <= days; day++ {
			for _, d := range workload.Districts {
				in.params = append(in.params, param{d, workload.DateName(day)})
			}
		}
		rng.Shuffle(len(in.params), func(i, j int) { in.params[i], in.params[j] = in.params[j], in.params[i] })
		return in
	}
	seen := make(map[param]bool)
	for _, i := range rng.Perm(len(workload.Districts))[:streamParams] {
		p := param{workload.Districts[i], streamDate}
		seen[p] = true
		in.params = append(in.params, p)
	}
	for len(in.params) < hot {
		p := param{workload.Districts[rng.Intn(len(workload.Districts))], workload.DateName(rng.Intn(days))}
		if !seen[p] {
			seen[p] = true
			in.params = append(in.params, p)
		}
	}
	rng.Shuffle(len(in.params), func(i, j int) { in.params[i], in.params[j] = in.params[j], in.params[i] })
	return in
}

// generate builds the accident instance.
func (in *inputs) generate() (*workload.Accidents, error) {
	return workload.GenerateAccidents(workload.AccidentConfig{
		Days: days, AccidentsPerDay: accidentsPerDay, MaxVehicles: maxVehicles, Seed: in.seed,
	})
}

// stream starts the delta stream that continues acc.
func (in *inputs) stream(acc *workload.Accidents) (*workload.AccidentStream, error) {
	return workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
		InsertAccidents: streamInserts, DeleteAccidents: streamDeletes, Seed: in.seed*31 + 7,
	})
}

// query is the Q0 shape with param p's district and date as constants.
func (p param) query(label string) *cq.CQ {
	return &cq.CQ{
		Label: label, Free: []string{"xa"},
		Atoms: []cq.Atom{
			cq.NewAtom("Accident", cq.Var("aid"), cq.Const(value.NewString(p.district)), cq.Const(value.NewString(p.date))),
			cq.NewAtom("Casualty", cq.Var("cid"), cq.Var("aid"), cq.Var("class"), cq.Var("vid")),
			cq.NewAtom("Vehicle", cq.Var("vid"), cq.Var("dri"), cq.Var("xa")),
		},
	}
}

// digest summarizes an answer set independently of row order: the row
// count and a wrapping sum of per-row hashes. Answers are sets, so a
// dropped, added or changed row changes it.
type digest struct {
	rows int
	sum  uint64
}

func (d *digest) addInt(x int64) {
	d.rows++
	d.sum += mix(uint64(x) ^ 0x9e3779b97f4a7c15)
}

func (d *digest) addString(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	d.rows++
	d.sum += mix(h.Sum64())
}

// addRow folds one engine row in. Q0-family rows are one integer (an
// age); other kinds hash their text so a wrong-typed row still differs.
func (d *digest) addRow(t data.Tuple) {
	if len(t) == 1 && t[0].Kind() == value.Int {
		d.addInt(t[0].Int())
		return
	}
	d.addString(string(t.Key()))
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mirror is the oracle's copy of the accident instance in plain Go maps,
// keyed by each relation's key attribute, with two lookup maps so that
// an answer touches only one date's accidents. It never goes through
// core, plan, index or eval.
type mirror struct {
	accident map[int64][2]string // aid -> district, date
	casualty map[int64][3]int64  // cid -> aid, class, vid
	vehicle  map[int64]vehicle   // vid -> name, age

	onDate map[string]map[int64]bool // date -> aids
	ofAid  map[int64]map[int64]bool  // aid -> cids
}

type vehicle struct {
	name string
	age  int64
}

func newMirror(d *data.Instance) (*mirror, error) {
	m := &mirror{
		accident: make(map[int64][2]string),
		casualty: make(map[int64][3]int64),
		vehicle:  make(map[int64]vehicle),
		onDate:   make(map[string]map[int64]bool),
		ofAid:    make(map[int64]map[int64]bool),
	}
	for _, rel := range []string{"Accident", "Casualty", "Vehicle"} {
		r := d.Relation(rel)
		var buf data.Tuple
		for i := 0; i < r.Len(); i++ {
			buf = r.AppendRow(buf[:0], i)
			if err := m.change(rel, true, buf); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// apply folds one delta in through Delta.Each. A delete of a tuple the
// mirror does not hold, or an insert over a different tuple with the
// same key, is an error: the stream is wrong, not the program.
func (m *mirror) apply(d *live.Delta) error {
	return d.Each(func(rel string, insert bool, t data.Tuple) error { return m.change(rel, insert, t) })
}

func (m *mirror) change(rel string, insert bool, t data.Tuple) error {
	switch rel {
	case "Accident":
		k, v := t[0].Int(), [2]string{t[1].Str(), t[2].Str()}
		if err := setOrDelete(m.accident, k, v, insert, rel); err != nil {
			return err
		}
		setMember(m.onDate, v[1], k, insert)
		return nil
	case "Casualty":
		k, v := t[0].Int(), [3]int64{t[1].Int(), t[2].Int(), t[3].Int()}
		if err := setOrDelete(m.casualty, k, v, insert, rel); err != nil {
			return err
		}
		setMember(m.ofAid, v[0], k, insert)
		return nil
	case "Vehicle":
		k, v := t[0].Int(), vehicle{t[1].Str(), t[2].Int()}
		return setOrDelete(m.vehicle, k, v, insert, rel)
	}
	return fmt.Errorf("oracle: unknown relation %s", rel)
}

// setMember adds k to, or removes it from, the set sets[of].
func setMember[K comparable](sets map[K]map[int64]bool, of K, k int64, insert bool) {
	if !insert {
		delete(sets[of], k)
		return
	}
	if sets[of] == nil {
		sets[of] = make(map[int64]bool)
	}
	sets[of][k] = true
}

func setOrDelete[V comparable](rel map[int64]V, k int64, v V, insert bool, name string) error {
	old, ok := rel[k]
	if insert {
		if ok && old != v {
			return fmt.Errorf("oracle: %s insert of key %d over a different tuple", name, k)
		}
		rel[k] = v
		return nil
	}
	if !ok || old != v {
		return fmt.Errorf("oracle: %s delete of key %d that the mirror does not hold", name, k)
	}
	delete(rel, k)
	return nil
}

// answer evaluates Q0(p) over the mirror by nested loops: accidents on
// p's date, those in p's district, their casualties, each casualty's
// vehicle. The answer is the set of the vehicles' ages.
//
// need is what a bounded plan that starts from p's date fetches at
// most: every accident on the date (by date, then each by aid), each
// distinct (aid, vid) casualty projection of those accidents, and each
// distinct vehicle they name. It depends on the date's accidents, never
// on |D|.
func (m *mirror) answer(p param) (d digest, need int64) {
	pairs := make(map[[2]int64]bool)
	vids := make(map[int64]bool)
	ages := make(map[int64]bool)
	for aid := range m.onDate[p.date] {
		inDistrict := m.accident[aid][0] == p.district
		for cid := range m.ofAid[aid] {
			vid := m.casualty[cid][2]
			pairs[[2]int64{aid, vid}] = true
			vids[vid] = true
			if !inDistrict {
				continue
			}
			if v, ok := m.vehicle[vid]; ok {
				ages[v.age] = true
			}
		}
	}
	for age := range ages {
		d.addInt(age)
	}
	return d, int64(2*len(m.onDate[p.date]) + len(pairs) + len(vids))
}

// fetchSlack is how many times answer's need a query may fetch before
// the check rejects it. A plan that scans a relation fetches thousands
// of tuples where need is a few hundred.
const fetchSlack = 2

// record is one query the run served, kept for the oracle: which
// parameter, after how many acknowledged deltas, what came back and
// how many tuples the program reported fetching for it.
type record struct {
	param   int32
	applied int32
	got     digest
	fetched int64
}

// check is the oracle's verdict on a run's answers.
type check struct {
	// wrong counts answers that differ from the oracle's; overFetched
	// counts queries that fetched more than fetchSlack × need.
	wrong, overFetched int
}

// verify replays the run against the oracle: it regenerates the
// instance and the delta stream from the seed, walks the records in
// order, applying deltas to the mirror as the program acknowledged
// them, and compares every answer and fetched count. sent is how many
// deltas the run took from the stream and refused lists the stream
// positions the program refused, which the mirror skips. It returns the
// verdict and the oracle's answers for every parameter after all
// acknowledged deltas.
func verify(in *inputs, recs []record, sent int, refused []int) (chk check, final []digest, err error) {
	acc, err := in.generate()
	if err != nil {
		return chk, nil, err
	}
	st, err := in.stream(acc)
	if err != nil {
		return chk, nil, err
	}
	m, err := newMirror(acc.Instance)
	if err != nil {
		return chk, nil, err
	}
	applied := sent - len(refused)
	pos := 0 // stream position
	// next folds the next acknowledged delta into the mirror.
	next := func() error {
		for len(refused) > 0 && refused[0] == pos {
			st.Next()
			refused = refused[1:]
			pos++
		}
		pos++
		return m.apply(st.Next())
	}
	type expected struct {
		d    digest
		need int64
	}
	version := 0
	memo := make(map[int32]expected)
	for _, r := range recs {
		if int(r.applied) < version || int(r.applied) > applied {
			return chk, nil, fmt.Errorf("oracle: record after %d deltas, run acknowledged %d", r.applied, applied)
		}
		for version < int(r.applied) {
			if err := next(); err != nil {
				return chk, nil, err
			}
			version++
			clear(memo)
		}
		want, ok := memo[r.param]
		if !ok {
			want.d, want.need = m.answer(in.params[r.param])
			memo[r.param] = want
		}
		if r.got != want.d {
			chk.wrong++
		}
		if r.fetched > fetchSlack*want.need {
			chk.overFetched++
		}
	}
	for version < applied {
		if err := next(); err != nil {
			return chk, nil, err
		}
		version++
	}
	final = make([]digest, len(in.params))
	for i, p := range in.params {
		final[i], _ = m.answer(p)
	}
	return chk, final, nil
}
