package main

import (
	"time"

	"repro/internal/relation"
)

// replayResult holds, per call class, what the recorded calls cost
// against the local replica.
type replayResult struct {
	durs map[string][]time.Duration
}

func (r *replayResult) mean(class string) time.Duration {
	d := r.durs[class]
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// metrics names the replayed classes as storage-layer metrics.
func (r *replayResult) metrics() map[string]float64 {
	return map[string]float64{
		"storage.plain.search_us":   us(r.mean(classSearch)),
		"storage.plain.insert_ns":   ns(r.mean(classInsert)),
		"storage.enc.attrcolumn_us": us(r.mean(classColumn)),
		"storage.enc.fetch_us":      us(r.mean(classFetch)),
		"storage.enc.lookup_ns":     ns(r.mean(classLookup)),
		"storage.enc.add_ns":        ns(r.mean(classAdd)),
	}
}

// replay runs the recorded calls, in order, against the replica. A class
// the workload never called is timed on stand-in calls of the same shape
// so that every storage metric is reported by every workload; stand-ins
// never enter a table, whose rows are weighted by calls actually made.
func (rep *replica) replay(calls []storeCall) *replayResult {
	out := &replayResult{durs: map[string][]time.Duration{}}
	run := func(c storeCall) {
		t0 := time.Now()
		switch c.class {
		case classSearch:
			rep.plain.Search(c.values)
		case classInsert:
			rep.plain.Insert(c.tuple)
		case classColumn:
			rep.enc.AttrColumn()
		case classFetch:
			rep.enc.Fetch(c.addrs)
		case classLookup:
			rep.enc.LookupToken(c.token)
		case classAdd:
			rep.enc.Add(c.row.TupleCT, c.row.AttrCT, c.row.Token)
		default:
			return
		}
		out.durs[c.class] = append(out.durs[c.class], time.Since(t0))
	}
	recorded := map[string]bool{}
	for _, c := range calls {
		recorded[c.class] = true
		run(c)
	}
	rows := rep.enc.Rows()
	const standIns = 64
	for i := 0; i < standIns && len(rows) > 0; i++ {
		row := rows[(i*7919)%len(rows)]
		for _, c := range []storeCall{
			{class: classSearch, values: standInValues(i)},
			{class: classInsert, tuple: relation.Tuple{ID: insertIDBase*2 + i, Values: []relation.Value{relation.Int(int64(i)), relation.Int(0)}}},
			{class: classFetch, addrs: standInAddrs(i, len(rows))},
			{class: classLookup, token: row.Token},
			{class: classAdd, row: row},
		} {
			if !recorded[c.class] {
				run(c)
			}
		}
	}
	for i := 0; i < 3 && !recorded[classColumn]; i++ {
		run(storeCall{class: classColumn})
	}
	return out
}

// standInValues is a bin-sized run of domain values.
func standInValues(i int) []relation.Value {
	vs := make([]relation.Value, 32)
	for k := range vs {
		vs[k] = relation.Int(int64((i*32 + k) % distinctValues))
	}
	return vs
}

// standInAddrs is a bin-sized set of row addresses.
func standInAddrs(i, n int) []int {
	as := make([]int, 0, 512)
	for k := 0; k < 512 && k < n; k++ {
		as = append(as, (i*512+k)%n)
	}
	return as
}
