package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
)

// Cluster endpoints. A coordinator-mode server exposes the control plane
// (register, heartbeat, /cluster status); a worker-mode server exposes
// the slice lease endpoint. Both modes keep the whole ordinary job API —
// a coordinator is still a pcnserve, it just runs jobs elsewhere.

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if !decodeBody(w, r, maxClusterBody, "register request", &req) {
		return
	}
	if req.Schema != cluster.WireSchema {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("wire schema %d, want %d", req.Schema, cluster.WireSchema)})
		return
	}
	id, err := s.opts.Cluster.Registry().Register(req.Addr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{Schema: cluster.WireSchema, ID: id})
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !decodeBody(w, r, maxClusterBody, "heartbeat request", &req) {
		return
	}
	if req.Schema != cluster.WireSchema {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("wire schema %d, want %d", req.Schema, cluster.WireSchema)})
		return
	}
	if err := s.opts.Cluster.Registry().Heartbeat(req.ID); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, cluster.ErrUnknownNode) {
			// The re-register signal: the worker's id predates this
			// coordinator process.
			status = http.StatusNotFound
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterStatus serves the /cluster document: node table, active
// leases, release counter.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.Cluster.Status())
}
