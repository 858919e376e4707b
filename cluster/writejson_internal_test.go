package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/serve"
)

// TestWriteJSONEncodeFailureIs500: the router's writeJSON must not leave
// the intended status with an empty body when the value cannot be encoded;
// it answers 500 with a structured error that echoes the request id.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set(serve.RequestIDHeader, "req-nan")
	writeJSON(rec, http.StatusOK, map[string]float64{"load": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body serve.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not a structured error: %v", rec.Body.String(), err)
	}
	if body.Code != serve.CodeInternal || body.Error == "" || body.RequestID != "req-nan" {
		t.Fatalf("error body %+v", body)
	}
}
