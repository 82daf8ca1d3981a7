package catalog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nsdfgo/internal/telemetry"
)

// Server exposes a Catalog over HTTP:
//
//	POST /records           ingest a JSON array of records
//	GET  /records/<id>      fetch one record
//	GET  /search?q=&source=&type=&prefix=&limit=
//	GET  /stats             catalog summary
//	GET  /healthz           liveness probe
type Server struct {
	cat *Catalog
	tel *telemetry.HTTPMetrics
}

// NewServer wraps a catalog for HTTP serving.
func NewServer(cat *Catalog) *Server { return &Server{cat: cat} }

// EnableTelemetry attaches a metrics registry: every request is counted
// under nsdf_http_requests_total{service="catalog",route,class} and timed
// in nsdf_http_request_seconds{service="catalog"}. The process serves the
// registry's exposition itself (serverkit's DebugMux).
func (s *Server) EnableTelemetry(reg *telemetry.Registry) {
	s.tel = telemetry.NewHTTPMetrics(reg, "catalog")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil {
		s.route(w, r)
		return
	}
	rec := telemetry.NewStatusRecorder(w)
	start := time.Now()
	s.route(rec, r)
	s.tel.Observe(routeLabel(r), rec.Code, time.Since(start))
}

// routeLabel maps a request to a bounded route name for telemetry.
func routeLabel(r *http.Request) string {
	switch {
	case r.URL.Path == "/healthz":
		return "/healthz"
	case r.URL.Path == "/records":
		return "/records"
	case len(r.URL.Path) > len("/records/") && r.URL.Path[:9] == "/records/":
		return "/records/{id}"
	case r.URL.Path == "/search":
		return "/search"
	case r.URL.Path == "/stats":
		return "/stats"
	}
	return "other"
}

// route dispatches a request to its handler.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		telemetry.WriteHealth(w, "catalog")
	case r.URL.Path == "/records" && r.Method == http.MethodPost:
		s.handleIngest(w, r)
	case len(r.URL.Path) > len("/records/") && r.URL.Path[:9] == "/records/" && r.Method == http.MethodGet:
		s.handleGet(w, r, r.URL.Path[9:])
	case r.URL.Path == "/search" && r.Method == http.MethodGet:
		s.handleSearch(w, r)
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		writeJSON(w, s.cat.Stats())
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var records []Record
	if err := json.NewDecoder(r.Body).Decode(&records); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	added, err := s.cat.Add(records...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]int{"added": added})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, id string) {
	rec, ok := s.cat.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, rec)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	limit := 0
	if ls := qv.Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = v
	}
	results := s.cat.Search(Query{
		Terms:      qv.Get("q"),
		Source:     qv.Get("source"),
		Type:       qv.Get("type"),
		NamePrefix: qv.Get("prefix"),
		Limit:      limit,
	})
	if results == nil {
		results = []Record{}
	}
	writeJSON(w, results)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
