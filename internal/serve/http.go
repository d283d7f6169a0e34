package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"phelps/internal/obs"
	"phelps/internal/sim"
)

// Handler returns the daemon's HTTP handler (routes under /v1). Responses the
// mux produces itself — 404 for unknown paths, 405 for wrong methods — are
// plain text; the wrapper rewrites them into the JSON ErrorReply envelope so
// every non-2xx body a client sees is machine-readable.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mux.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

// envelopeWriter intercepts non-JSON error responses at WriteHeader time
// (http.Error sets Content-Type before writing the status, so the check is
// reliable) and substitutes an ErrorReply body, dropping the plain-text one.
type envelopeWriter struct {
	http.ResponseWriter
	rewriting bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	if code >= 400 && !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.rewriting = true
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(code)
		kind := KindInternal
		switch code {
		case http.StatusNotFound:
			kind = KindNotFound
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
			kind = KindBadRequest
		case http.StatusTooManyRequests:
			kind = KindOverloaded
		case http.StatusServiceUnavailable:
			kind = KindUnavailable
		}
		enc := json.NewEncoder(w.ResponseWriter)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ErrorReply{Error: strings.ToLower(http.StatusText(code)), Kind: kind})
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if w.rewriting {
		return len(p), nil // the envelope already went out; eat the text body
	}
	return w.ResponseWriter.Write(p)
}

// maxBodyBytes bounds a job request body; real requests are a few hundred
// bytes of names, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/obs", s.handleObs)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/configs", s.handleConfigs)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hung up; nothing useful to do
}

func writeError(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, ErrorReply{Error: msg, Kind: kind})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, KindBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	// The body is exactly one JSON value: anything but whitespace after it
	// is malformed, not ignored.
	var rest json.RawMessage
	if err := dec.Decode(&rest); err != io.EOF {
		writeError(w, http.StatusBadRequest, KindBadRequest, "decode request: trailing data after the JSON value")
		return
	}
	job, aerr := s.Submit(req)
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests {
			sec := int(aerr.retryAfter.Seconds())
			if sec < 1 {
				sec = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(sec))
			writeJSON(w, aerr.code, ErrorReply{Error: aerr.msg, Kind: aerr.kind, RetryAfterSec: sec})
			return
		}
		writeError(w, aerr.code, aerr.kind, aerr.msg)
		return
	}
	w.Header().Set("Location", API+"/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Result(s.cache))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.Cancel(j) // idempotent: a second DELETE just re-reports the state
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Report())
}

func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	quick := r.URL.Query().Get("quick") == "true"
	specs := sim.AllSpecs(quick)
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	writeJSON(w, http.StatusOK, NameList{Names: names})
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, NameList{Names: sim.ConfigNames()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Healthz())
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionReply{
		Version:         Version,
		API:             API,
		GoVersion:       runtime.Version(),
		ReportSchema:    obs.BenchReportSchema,
		HostBenchSchema: obs.HostBenchSchema,
	})
}
