package serve

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
)

// envelopeBodies seed FuzzEnvelopeDecode: well-formed advisor and
// sensitivity requests, each rejection rule, and the encoding/json
// quirks of a scheme list.
var envelopeBodies = []string{
	`{}`,
	`{"level": "mid", "procs": 4}`,
	`{"params": {"shd": 0.3, "apl": 8}, "procs": 8}`,
	`{"level": "high", "stages": 3}`,
	`{"schemes": ["dragon", "hybrid", "hybrid-update"], "lockfrac": 0.4, "updatefrac": 0.6, "procs": 2}`,
	`{"schemes": ["hybrid"], "lockfrac": 1.5}`,
	`{"schemes": ["dragon"], "stages": 2}`,
	`{"schemes": [], "procs": 3}`,
	`{"procs": 4, "stages": 2}`,
	`{"procs": -1}`,
	`{"stages": 99}`,
	`{"level": "mid", "params": {}}`,
	`{"level": "extreme"}`,
	`{"params": {"shd": "x"}}`,
	`{"params": null, "schemes": null}`,
	`{"prox": 4}`,
	`{"procs": 4}}`,
	`{"procs": 4} x`,
	`[1, 2]`,
	`"advisor"`,
	`null`,
	``,
	`{"schemes": ["moesi"]}`,
	// Scheme lists: null elements keep what an earlier duplicate key
	// left at that index, and a list of another type is rejected.
	`{"schemes": ["dragon", "base"], "schemes": [null, null, null]}`,
	`{"schemes": ["dragon", "base", "winv"], "schemes": ["swflush"], "schemes": [null, null, null]}`,
	`{"schemes": ["dragon"], "schemes": [], "procs": 2}`,
	`{"schemes": ["dragon"], "schemes": [], "schemes": [null]}`,
	`{"schemes": ["dragon"], "Schemes": null}`,
	`{"SCHEMES": ["hybrid", "hybrid"], "LockFrac": 0.2, "procs": 2}`,
	`{"schemes": [null]}`,
	`{"schemes": "dragon"}`,
	`{"schemes": [1]}`,
	`{"schemes": ["dragon",]}`,
	`{"schemes": {}}`,
	`{"schemes": ["dr\u0061gon", "ba\ud800se"]}`,
	`{"schemes": ["hybrid-update"], "updatefrac": 0.3, "updatefrac": null}`,
	`{"scheme": "dragon"}`,
	`{"point": true}`,
}

// FuzzEnvelopeDecode drives the two request envelopes, /v1/advisor and
// /v1/sensitivity, on arbitrary bytes. Their decode must agree with the
// encoding/json oracle. Then decode, validation and (for bodies that
// pass) the solve run through the handlers: no input may panic, and
// every rejection must render as a 4xx: a malformed request is the
// client's fault and must never surface as a 5xx. The status is read
// through writeError, the mapping clients see — decode and validation
// failures are httpErrors, while a scheme with no network model fails
// in the solve as core.ErrUnsupported, which maps to 422. The server
// caps procs and stages low so an input that reaches the model stays
// cheap.
func FuzzEnvelopeDecode(f *testing.F) {
	addCorpus(f, envelopeBodies)
	s := NewServer(Config{
		MaxProcs:  8,
		MaxStages: 4,
		CacheCap:  256,
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	handlers := []struct {
		name string
		fn   apiFunc
	}{
		{"advisor", s.handleAdvisor},
		{"sensitivity", s.handleSensitivity},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEnvelope(t, "advisor", body, decodeAdvisor, oracleAdvisor)
		checkEnvelope(t, "sensitivity", body, decodeSensitivity, oracleSensitivity)
		for _, h := range handlers {
			_, err := h.fn(context.Background(), body)
			if err == nil {
				continue
			}
			rec := httptest.NewRecorder()
			s.writeError(rec, err)
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("%s(%q): error %v renders as %d, want a 4xx", h.name, body, err, rec.Code)
			}
		}
	})
}
