package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// FuzzQueryRequest posts arbitrary bodies to /query and /prepare on a
// handler over a small in-memory database. No body may panic the handler or
// earn a 5xx — bar the 503 a request's own timeout_ms earns when it expires
// before the first retrieval — and a body the handler accepts must be
// answered: a 2xx /query carries its results, a 2xx /prepare a handle.
func FuzzQueryRequest(f *testing.F) {
	for _, body := range []string{
		`{"statements": "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15"}`,
		`{"statements": "SUM(salary) WHERE age <= 15", "budget": 3}`,
		`{"statements": "COUNT() GROUP BY age(16)"}`,
		`{"statements": "SUM(salary) WHERE age <= 15", "budget": 1, "priority": "high", "timeout_ms": 1000}`,
		`{"handle": "batch:71d36ad3c9e41b02", "budget": 200}`,
		`not json`,
		`{"statements": "FROB()"}`,
		`{"statements": ""}`,
		`{"statements": "COUNT()", "budget": -1}`,
		`{"statements": "COUNT()", "bogus": 1}`,
	} {
		f.Add(body)
	}
	h, _, _ := testHandler(f)
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/query", "/prepare"} {
			rec := postJSON(t, h, path, body, nil)
			switch {
			case rec.Code >= 500:
				var req QueryRequest
				if path == "/query" && rec.Code == http.StatusServiceUnavailable &&
					json.Unmarshal([]byte(body), &req) == nil && req.TimeoutMS > 0 {
					continue
				}
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			case rec.Code >= 300:
				continue
			case path == "/query":
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST /query %q: accepted with an undecodable body: %v", body, err)
				}
				if len(resp.Results) == 0 || resp.Retrieved > resp.Distinct {
					t.Fatalf("POST /query %q: accepted but not answered: %s", body, rec.Body)
				}
			default:
				var resp PrepareResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST /prepare %q: accepted with an undecodable body: %v", body, err)
				}
				if resp.Handle == "" || resp.Queries == 0 {
					t.Fatalf("POST /prepare %q: accepted but not answered: %s", body, rec.Body)
				}
			}
		}
	})
}

// FuzzIngestCSV posts arbitrary CSV to /ingest on an MVCC database. No body
// may panic the handler or earn a 5xx, and a body the handler accepts must
// be answered with what it applied: every applied row is one tuple more.
func FuzzIngestCSV(f *testing.F) {
	for _, body := range []string{
		"age,salary\n1.0,2.0\n3.5,4.5\nnope,1\n7.0,8.0\n",
		"age,salary\n25,50000\nbogus,1\n",
		"salary,age\n31,0\n",
		"age,salary,extra\n1,2,3\n",
		"age\n1\n",
		"age,salary\n-5,1e308\n",
		"",
	} {
		f.Add(body)
	}
	db := mvccDatabase(f)
	h := New(db, Options{})
	f.Cleanup(h.Close)
	f.Fuzz(func(t *testing.T, body string) {
		before := db.TupleCount()
		rec := postIngest(t, h, "text/csv", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /ingest %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code >= 300 {
			return
		}
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST /ingest %q: accepted with an undecodable body: %v", body, err)
		}
		if resp.Applied < 0 || resp.Skipped < 0 || resp.Tuples != before+int64(resp.Applied) || resp.Tuples != db.TupleCount() {
			t.Fatalf("POST /ingest %q: response %+v after %d tuples (database now %d)", body, resp, before, db.TupleCount())
		}
	})
}
