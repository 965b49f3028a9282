// Package wire is the HTTP request contract of the endpoints both
// serving tiers answer: the replica (internal/server) and the
// coordinator (internal/cluster). It owns body decoding, the parsing
// and validation of /knn, /range, /nearest, /batch and /query with
// their fan-out caps, the canonical form of each request, the error
// shape and the JSON encoders. Both tiers call the same functions, so
// a request either tier rejects gets the same status and body from the
// other by construction.
//
// Every rejection is an *Error carrying its HTTP status; Reject writes
// it as {"error": "..."}.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"pll/pll"
)

// Error is a rejected request: the HTTP status and the message the
// client reads.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an *Error with a formatted message.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Reject writes err as the {"error": ...} body. An *Error carries its
// own status; any other error is a 400, since the handlers pass on
// only errors the request caused (a vertex the served index does not
// have).
func Reject(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var we *Error
	if errors.As(err, &we) {
		status = we.Status
	}
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // nothing to do for a dead client
}

// WriteBytes writes a pre-encoded JSON body (a cached answer).
func WriteBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // nothing to do for a dead client
}

// Marshal encodes v with the trailing newline json.Encoder writes, so
// a body built here is byte-identical to one WriteJSON streams.
func Marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// errTrailing rejects a body that holds more than one JSON value.
var errTrailing = errors.New("unexpected data after the JSON value")

// Decode reads exactly one JSON value from r into v. Unknown fields
// and anything but white space after the value are rejected, so a
// misspelled field cannot silently take its zero value. An r capped by
// http.MaxBytesReader that overflows gives a 413; every other failure
// is a 400 "bad JSON body".
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errTrailing
		} else if err == io.EOF {
			return nil
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooBig.Limit)
	}
	return Errorf(http.StatusBadRequest, "bad JSON body: %v", err)
}

// CheckFanout bounds a client-controlled count by maxBatch.
func CheckFanout(name string, v, maxBatch int) error {
	if v < 1 || v > maxBatch {
		return Errorf(http.StatusBadRequest, "%s=%d outside [1,%d]", name, v, maxBatch)
	}
	return nil
}

// queryInt parses one required integer query parameter of the given
// bit size.
func queryInt(q url.Values, name string, bits int) (int64, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, Errorf(http.StatusBadRequest, "missing query parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, bits)
	if err != nil {
		return 0, Errorf(http.StatusBadRequest, "bad %s %q", name, raw)
	}
	return v, nil
}

// KNNRequest is GET /knn?s=V&k=N: the k nearest vertices to s.
type KNNRequest struct {
	S, K int32
}

// ParseKNN reads a /knn query and caps k by maxBatch.
func ParseKNN(q url.Values, maxBatch int) (KNNRequest, error) {
	s, err := queryInt(q, "s", 32)
	if err != nil {
		return KNNRequest{}, err
	}
	k, err := queryInt(q, "k", 32)
	if err != nil {
		return KNNRequest{}, err
	}
	if err := CheckFanout("k", int(k), maxBatch); err != nil {
		return KNNRequest{}, err
	}
	return KNNRequest{S: int32(s), K: int32(k)}, nil
}

// Path is the canonical path and query of the request.
func (q KNNRequest) Path() string {
	return fmt.Sprintf("/knn?s=%d&k=%d", q.S, q.K)
}

// RangeRequest is GET /range?s=V&r=D[&limit=N]: the vertices within
// distance R of S, at most Limit of them.
type RangeRequest struct {
	S     int32
	R     int64 // int64: weighted radii can exceed int32
	Limit int
}

// ParseRange reads a /range query. The limit defaults to maxBatch and
// may not exceed it.
func ParseRange(q url.Values, maxBatch int) (RangeRequest, error) {
	s, err := queryInt(q, "s", 32)
	if err != nil {
		return RangeRequest{}, err
	}
	r, err := queryInt(q, "r", 64)
	if err != nil {
		return RangeRequest{}, err
	}
	if r < 0 {
		return RangeRequest{}, Errorf(http.StatusBadRequest, "r=%d must be non-negative", r)
	}
	limit := maxBatch
	if raw := q.Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil {
			return RangeRequest{}, Errorf(http.StatusBadRequest, "bad limit %q", raw)
		}
		if err := CheckFanout("limit", limit, maxBatch); err != nil {
			return RangeRequest{}, err
		}
	}
	return RangeRequest{S: int32(s), R: r, Limit: limit}, nil
}

// Path is the canonical path and query of the request, with the limit
// always explicit.
func (q RangeRequest) Path() string {
	return fmt.Sprintf("/range?s=%d&r=%d&limit=%d", q.S, q.R, q.Limit)
}

// NearestRequest is POST /nearest {"source": 0, "set": [3, 17, 29],
// "k": 2}: the k members of the set nearest to source.
type NearestRequest = nearestRequest

// The request structs keep unexported names because encoding/json
// puts the type name into type-mismatch messages ("Go struct field
// nearestRequest.k of type int"), which the 400 bodies carry.
type nearestRequest struct {
	Source int32   `json:"source"`
	Set    []int32 `json:"set"`
	K      int     `json:"k"`
}

// Validate checks that the set is non-empty and caps its size and k
// by maxBatch.
func (q *NearestRequest) Validate(maxBatch int) error {
	if len(q.Set) == 0 {
		return Errorf(http.StatusBadRequest, `nearest body needs a non-empty "set"`)
	}
	if err := CheckFanout("set size", len(q.Set), maxBatch); err != nil {
		return err
	}
	return CheckFanout("k", q.K, maxBatch)
}

// BatchRequest is POST /batch: either explicit pairs, or one source
// against many targets (the amortized single-source form).
type BatchRequest = batchRequest

type batchRequest struct {
	Pairs   [][2]int32 `json:"pairs,omitempty"`
	Source  *int32     `json:"source,omitempty"`
	Targets []int32    `json:"targets,omitempty"`
}

// Len is the number of distances the request asks for.
func (q *BatchRequest) Len() int { return len(q.Pairs) + len(q.Targets) }

// Validate checks that exactly one form is used and caps the pair
// count by maxBatch.
func (q *BatchRequest) Validate(maxBatch int) error {
	switch {
	case q.Source != nil && len(q.Targets) > 0 && len(q.Pairs) == 0:
	case q.Source == nil && len(q.Targets) == 0 && len(q.Pairs) > 0:
	default:
		return Errorf(http.StatusBadRequest, `batch body needs either "pairs" or "source"+"targets"`)
	}
	if n := q.Len(); n > maxBatch {
		return Errorf(http.StatusRequestEntityTooLarge, "batch of %d pairs exceeds the %d limit", n, maxBatch)
	}
	return nil
}

// BatchResponse is the /batch answer: one distance per requested pair,
// in request order.
type BatchResponse struct {
	Count     int     `json:"count"`
	Distances []int64 `json:"distances"`
}

// WriteBatch writes the 200 /batch answer.
func WriteBatch(w http.ResponseWriter, distances []int64) {
	WriteJSON(w, http.StatusOK, BatchResponse{Count: len(distances), Distances: distances})
}

// Query validates and normalizes a POST /query request in place, caps
// its constraint fan-out and k by maxBatch, and returns its canonical
// encoding: requests that differ only in defaults, field order or
// white space encode alike.
func Query(req *pll.CompositeRequest, maxBatch int) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return nil, Errorf(http.StatusBadRequest, "%v", err)
	}
	req.Normalize()
	if err := CheckFanout("constraint fan-out", req.Fanout(), maxBatch); err != nil {
		return nil, err
	}
	if req.K > maxBatch {
		return nil, Errorf(http.StatusBadRequest, "k=%d outside [0,%d]", req.K, maxBatch)
	}
	canon, err := json.Marshal(req)
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "%v", err)
	}
	return canon, nil
}
