// Request types decoded from another package: the handler's closure
// stops at the package boundary, so the fan-out cap must be visible in
// the handler itself, as the MaxBatch it hands to the validator.
package handlerlimits

import (
	"net/http"

	"wire"
)

func (s *server) handleWireNoFanout(w http.ResponseWriter, r *http.Request) {
	var req wire.NearestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	_ = req.Set
}

func (s *server) handleWireGood(w http.ResponseWriter, r *http.Request) {
	var req wire.NearestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.Validate(s.cfg.MaxBatch); err != nil {
		return
	}
}

func registerWire(s *server) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /wire/nofanout", s.handleWireNoFanout) // want `never caps its length against MaxBatch`
	mux.HandleFunc("POST /wire/good", s.handleWireGood)
}
