package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodeFailureIs500: a value JSON cannot encode must not
// leave the intended status with an empty body; it answers 500 with a
// structured error that echoes the request id.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set(RequestIDHeader, "req-nan")
	writeJSON(rec, http.StatusOK, ScheduleResponse{Makespan: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not a structured error: %v", rec.Body.String(), err)
	}
	if body.Code != CodeInternal || body.Error == "" || body.RequestID != "req-nan" {
		t.Fatalf("error body %+v", body)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, ScheduleResponse{Makespan: 7})
	if rec.Code != http.StatusCreated || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}
