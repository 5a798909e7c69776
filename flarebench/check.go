package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"flare/internal/core"
	"flare/internal/machine"
	"flare/internal/metricdb"
)

// The response shapes below mirror internal/server's JSON encodings, so
// an expected body can be built from a direct evaluation and compared
// byte for byte with what the server sent.

type estimateBody struct {
	Feature           string  `json:"feature"`
	Description       string  `json:"description"`
	Job               string  `json:"job,omitempty"`
	ReductionPct      float64 `json:"mips_reduction_pct"`
	ScenariosReplayed int     `json:"scenarios_replayed"`
	Degraded          bool    `json:"degraded,omitempty"`
}

type batchBody struct {
	Job       string            `json:"job,omitempty"`
	Estimates []json.RawMessage `json:"estimates"`
}

type columnBody struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type queryBody struct {
	Table   string          `json:"table"`
	Columns []columnBody    `json:"columns"`
	Total   int             `json:"total_rows"`
	Offset  int             `json:"offset"`
	Rows    [][]interface{} `json:"rows"`
}

// encode renders v the way the server's writeJSON does.
func encode(v interface{}) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err) // the body types above always encode
	}
	return b.Bytes()
}

// directEstimates evaluates every key directly on p, outside the server,
// and returns each key's compact estimate object.
func directEstimates(p *core.Pipeline, keys []estimateKey) (map[estimateKey][]byte, error) {
	feats := map[string]machine.Feature{}
	for _, f := range machine.PaperFeatures() {
		feats[f.Name] = f
	}
	out := make(map[estimateKey][]byte, len(keys))
	for _, k := range keys {
		f := feats[k.feature]
		body := estimateBody{Feature: f.Name, Description: f.Description, Job: k.job}
		if k.job == "" {
			est, err := p.EvaluateFeature(f)
			if err != nil {
				return nil, err
			}
			body.ReductionPct, body.ScenariosReplayed = est.ReductionPct, est.ScenariosReplayed
		} else {
			est, err := p.EvaluateFeatureForJob(f, k.job)
			if err != nil {
				return nil, err
			}
			body.ReductionPct, body.ScenariosReplayed = est.ReductionPct, est.ScenariosReplayed
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		out[k] = b
	}
	return out, nil
}

// expectedBody builds the exact body the server must send for an
// estimate or batch target, from compact per-key estimates.
func expectedBody(target string, est map[estimateKey][]byte) ([]byte, error) {
	path, query, _ := strings.Cut(target, "?")
	params, err := url.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	job := params.Get("job")
	switch path {
	case "/api/estimate":
		e, ok := est[estimateKey{params.Get("feature"), job}]
		if !ok {
			return nil, fmt.Errorf("no direct estimate for %s", target)
		}
		return append(append([]byte(nil), e...), '\n'), nil
	case "/api/estimate/batch":
		b := batchBody{Job: job}
		for _, f := range strings.Split(params.Get("features"), ",") {
			e, ok := est[estimateKey{f, job}]
			if !ok {
				return nil, fmt.Errorf("no direct estimate for %s", target)
			}
			b.Estimates = append(b.Estimates, e)
		}
		return encode(b), nil
	}
	return nil, fmt.Errorf("not an estimate target: %s", target)
}

// dbQuery is a parsed /api/db/query target.
type dbQuery struct {
	table, col, eq string
	offset, limit  int
}

func parseDBQuery(target string) (dbQuery, error) {
	_, query, _ := strings.Cut(target, "?")
	v, err := url.ParseQuery(query)
	if err != nil {
		return dbQuery{}, err
	}
	q := dbQuery{table: v.Get("table"), col: v.Get("col"), eq: v.Get("eq"), limit: 100}
	if s := v.Get("offset"); s != "" {
		if q.offset, err = strconv.Atoi(s); err != nil {
			return q, err
		}
	}
	if s := v.Get("limit"); s != "" {
		if q.limit, err = strconv.Atoi(s); err != nil {
			return q, err
		}
	}
	return q, nil
}

// dbOracle answers queries by direct metricdb.Table.Select calls, one
// per distinct predicate.
type dbOracle struct {
	db      *metricdb.DB
	results map[[3]string][]metricdb.Row
}

func newDBOracle(db *metricdb.DB) *dbOracle {
	return &dbOracle{db: db, results: map[[3]string][]metricdb.Row{}}
}

// selected returns the rows a direct Select with q's predicate gives.
func (o *dbOracle) selected(q dbQuery) ([]metricdb.Row, *metricdb.Table, error) {
	t, err := o.db.Table(q.table)
	if err != nil {
		return nil, nil, err
	}
	key := [3]string{q.table, q.col, q.eq}
	rows, ok := o.results[key]
	if !ok {
		var where func(metricdb.Row) bool
		if q.col != "" {
			if where, err = predicate(t, q.col, q.eq); err != nil {
				return nil, nil, err
			}
		}
		rows = t.Select(where)
		o.results[key] = rows
	}
	return rows, t, nil
}

// result returns how many rows q's page holds and how many rows match.
func (o *dbOracle) result(q dbQuery) (page, total int, err error) {
	rows, _, err := o.selected(q)
	if err != nil {
		return 0, 0, err
	}
	page = min(len(rows), q.offset+q.limit) - q.offset
	return max(page, 0), len(rows), nil
}

// expected returns the exact body the server must send for q.
func (o *dbOracle) expected(q dbQuery) ([]byte, error) {
	rows, t, err := o.selected(q)
	if err != nil {
		return nil, err
	}
	cols := t.Columns()
	body := queryBody{Table: q.table, Total: len(rows), Offset: q.offset, Rows: make([][]interface{}, 0, q.limit)}
	for _, c := range cols {
		body.Columns = append(body.Columns, columnBody{Name: c.Name, Type: c.Type.String()})
	}
	for i := q.offset; i < len(rows) && i < q.offset+q.limit; i++ {
		cells := make([]interface{}, len(cols))
		for j, v := range rows[i] {
			switch cols[j].Type {
			case metricdb.TypeFloat:
				cells[j] = v.F
			case metricdb.TypeInt:
				cells[j] = v.I
			default:
				cells[j] = v.S
			}
		}
		body.Rows = append(body.Rows, cells)
	}
	return encode(body), nil
}

// predicate is the row filter for col = eq, with eq parsed per the
// column's type, as the server's query handler builds it.
func predicate(t *metricdb.Table, col, eq string) (func(metricdb.Row) bool, error) {
	idx, err := t.ColumnIndex(col)
	if err != nil {
		return nil, err
	}
	switch t.Columns()[idx].Type {
	case metricdb.TypeFloat:
		want, err := strconv.ParseFloat(eq, 64)
		return func(r metricdb.Row) bool { return r[idx].F == want }, err
	case metricdb.TypeInt:
		want, err := strconv.ParseInt(eq, 10, 64)
		return func(r metricdb.Row) bool { return r[idx].I == want }, err
	default:
		return func(r metricdb.Row) bool { return r[idx].S == eq }, nil
	}
}
