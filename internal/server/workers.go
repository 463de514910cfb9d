// The dispatch API: ptestd's hub face for fleet workers. Thin HTTP
// shims over dispatch.Dispatcher — registration, the combined
// lease-and-complete round trip that also keeps a worker live, and the
// membership listing `ptest client workers` renders. The protocol
// shapes live in internal/dispatch; this file only maps them onto
// routes and status codes:
//
//	POST   /api/v1/workers                   register → 201 Registration
//	GET    /api/v1/workers                   fleet membership listing
//	DELETE /api/v1/workers/{id}              graceful deregistration
//	POST   /api/v1/workers/{id}/lease:batch  piggybacked completions in, up
//	                                         to Max digest-only grants out;
//	                                         liveness → 200 | 404 (re-register)
//	GET    /api/v1/jobs/{id}/spec            the job's defaulted spec — the
//	                                         plan-cache fill a worker does
//	                                         once per job instead of
//	                                         receiving the spec per grant
package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/api"
	"repro/internal/dispatch"
	"repro/internal/store"
)

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var req dispatch.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	writeJSON(w, http.StatusCreated, s.disp.Register(req.Name))
}

func (s *Server) handleWorkerList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.disp.Workers())
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.disp.Deregister(r.PathValue("id")) {
		api.WriteError(w, http.StatusNotFound, "unknown worker %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleWorkerLeaseBatch is the worker's only dispatch round trip:
// settle the piggybacked completions, then grant up to Max cells in
// grant order, spec omitted. Completions are accepted even from a
// worker the hub no longer tracks: a worker that lost the hub, finished
// its in-flight cells, and re-registers must not have its work
// discarded. The dispatcher resolves raced duplicates deterministically
// (executions are bit-identical), so there is no wrong answer to
// accept; the 404 that follows tells the worker to re-register.
func (s *Server) handleWorkerLeaseBatch(w http.ResponseWriter, r *http.Request) {
	var req dispatch.LeaseBatchRequest
	// The batch carries report.Cells, so the store's record cap is the
	// natural wire cap.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, store.MaxRecordBytes)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad lease batch body: %v", err)
		return
	}
	resp, err := s.disp.LeaseBatch(r.PathValue("id"), req.Max, req.Completions)
	if err != nil {
		api.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.met.leaseWireBatch.Add(1)
	s.met.leaseWireBatchCells.Add(uint64(len(resp.Grants)))
	writeJSON(w, http.StatusOK, resp)
}

// handleJobSpec serves a job's defaulted spec — the once-per-job fetch
// a worker's plan cache does on a digest miss.
func (s *Server) handleJobSpec(w http.ResponseWriter, r *http.Request) {
	j, id := s.lookup(r)
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.met.specWireGet.Add(1)
	writeJSON(w, http.StatusOK, j.spec)
}
