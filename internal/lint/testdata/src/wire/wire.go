// Package wire is a fixture stub standing in for the real
// pll/internal/wire package: a request type declared outside the
// handler's package, with a validator that takes the fan-out cap.
package wire

// NearestRequest carries a client-controlled set.
type NearestRequest = nearestRequest

type nearestRequest struct {
	Source int32   `json:"source"`
	Set    []int32 `json:"set"`
	K      int     `json:"k"`
}

// Validate caps the set size by maxBatch.
func (q *NearestRequest) Validate(maxBatch int) error { return nil }
