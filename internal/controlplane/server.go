// Package controlplane is the fleet control plane, one HTTP server: a
// FleetStore for the telemetry snapshots every tier pushes (per-AP
// health, fleet-merged latency with trace exemplars, stitched traces,
// SLO burn-rate alerts), the cooperative-mesh directory, and the
// telemetry exposition routes. edged -fleet-port runs it.
package controlplane

import (
	"encoding/json"
	"fmt"

	"apecache/internal/coopmesh"
	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// DefaultPort is the port Start binds when given 0.
const DefaultPort = 7000

// Server serves the fleet store at /snapshot, /fleet and /alerts, the
// mesh directory under /mesh, and the telemetry bundle's /metrics,
// /debug/vars, /debug/pprof and /trace.
type Server struct {
	env      vclock.Env
	host     transport.Host
	tel      *telemetry.Telemetry
	fleet    *FleetStore
	mesh     *coopmesh.Directory
	listener transport.Listener
}

// New builds a control plane. tel may be nil: the fleet store and the
// directory still work, but no traces are stitched, no counters are
// kept and no exposition routes are mounted.
func New(env vclock.Env, host transport.Host, tel *telemetry.Telemetry, cfg FleetConfig) *Server {
	s := &Server{env: env, host: host, tel: tel, fleet: NewFleetStore(env, tel, cfg), mesh: coopmesh.NewDirectory(env)}
	s.mesh.Instrument(tel)
	return s
}

// Fleet returns the fleet store.
func (s *Server) Fleet() *FleetStore { return s.fleet }

// Mesh returns the mesh directory. Its Purge is what a coherence hub's
// purge callback calls so lookups stop offering pre-purge summaries.
func (s *Server) Mesh() *coopmesh.Directory { return s.mesh }

// Start binds the control port and serves every route.
func (s *Server) Start(port uint16) error {
	if port == 0 {
		port = DefaultPort
	}
	l, err := s.host.Listen(port)
	if err != nil {
		return fmt.Errorf("controlplane: %w", err)
	}
	s.listener = l
	mux := httplite.NewMux()
	mux.HandleFunc(telemetry.DefaultSnapshotPath, s.handleSnapshot)
	mux.HandleFunc("/fleet", s.handleFleet)
	mux.HandleFunc("/alerts", s.handleAlerts)
	s.mesh.Mount(mux)
	s.tel.Register(mux)
	srv := httplite.NewServer(s.env, mux)
	s.env.Go("controlplane", func() { srv.Serve(l) })
	return nil
}

// Stop closes the listener Start bound.
func (s *Server) Stop() { s.listener.Close() }

// Addr returns the control plane endpoint.
func (s *Server) Addr() transport.Addr {
	return transport.Addr{Host: s.host.Name(), Port: s.listener.Addr().Port}
}

// handleSnapshot ingests one pushed telemetry snapshot.
func (s *Server) handleSnapshot(req *httplite.Request) *httplite.Response {
	snap, err := telemetry.DecodeSnapshot(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	if err := s.fleet.Ingest(snap); err != nil {
		return httplite.NewResponse(409, []byte(err.Error()))
	}
	return httplite.NewResponse(200, nil)
}

// handleFleet serves the fleet view.
func (s *Server) handleFleet(req *httplite.Request) *httplite.Response {
	return jsonResponse(s.fleet.View())
}

// AlertsPayload is the /alerts response body.
type AlertsPayload struct {
	Alerts  []AlertStatus `json:"alerts"`
	History []AlertEvent  `json:"history,omitempty"`
}

// handleAlerts serves alert statuses plus the transition history.
func (s *Server) handleAlerts(req *httplite.Request) *httplite.Response {
	return jsonResponse(AlertsPayload{Alerts: s.fleet.Alerts(), History: s.fleet.AlertHistory()})
}

// jsonResponse renders v as indented JSON.
func jsonResponse(v any) *httplite.Response {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}
