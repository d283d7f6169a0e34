package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"phelps/internal/sim"
)

// exploreRun is one model-triaged design-space search in flight or
// completed. Unlike matrix jobs, an explore is a single opaque task: its
// cells run on a sim.ForEach pool inside sim.RunExplore rather than on the
// daemon's pool, it is never journaled (a restart loses it; the client
// resubmits), and the daemon serves at most one at a time — a full explore
// saturates the host by itself, so overlapping two just thrashes.
type exploreRun struct {
	ID      string
	Created time.Time
	Req     ExploreRequest

	mu     sync.Mutex
	state  string
	err    error
	report *sim.ExploreReport
}

// Status snapshots the run for the API.
func (e *exploreRun) Status() ExploreStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := ExploreStatus{
		ID:         e.ID,
		State:      e.state,
		Created:    e.Created,
		Anchors:    e.Req.Anchors,
		Exhaustive: e.Req.Exhaustive,
		Report:     e.report,
	}
	if e.err != nil {
		st.Error = e.err.Error()
	}
	return st
}

// SubmitExplore admits and starts an explore run (503 draining, 429 if one
// is already in flight). The run executes on its own goroutine under the
// daemon's base context, so Drain cancels it.
func (s *Server) SubmitExplore(req ExploreRequest) (*exploreRun, *apiError) {
	if s.draining.Load() {
		return nil, &apiError{code: http.StatusServiceUnavailable, kind: KindUnavailable, msg: "daemon is draining"}
	}
	if req.Anchors < 0 || req.MaxFrontier < 0 {
		return nil, &apiError{code: http.StatusBadRequest, kind: KindBadRequest, msg: "anchors and max_frontier must be >= 0"}
	}
	if !s.exploreActive.CompareAndSwap(false, true) {
		return nil, &apiError{
			code:       http.StatusTooManyRequests,
			kind:       KindOverloaded,
			msg:        "an explore is already running (the daemon serves one at a time)",
			retryAfter: time.Minute,
		}
	}
	s.exploreMu.Lock()
	s.exploreSeq++
	run := &exploreRun{
		ID:      fmt.Sprintf("x-%06d", s.exploreSeq),
		Created: time.Now().UTC(),
		Req:     req,
		state:   ExploreRunning,
	}
	s.explores[run.ID] = run
	s.exploreMu.Unlock()
	s.exploresSubmitted.Add(1)

	go func() {
		defer s.exploreActive.Store(false)
		rep, err := sim.RunExplore(s.baseCtx, sim.ExploreOptions{
			Space:       s.cfg.ExploreSpace,
			Workloads:   s.cfg.ExploreWorkloads,
			Anchors:     req.Anchors,
			MaxFrontier: req.MaxFrontier,
			Exhaustive:  req.Exhaustive,
			CrashDir:    s.cfg.CrashDir,
		})
		run.mu.Lock()
		switch {
		case err == nil:
			run.state, run.report = ExploreDone, rep
		case errors.Is(err, sim.ErrCanceled):
			run.state, run.err = ExploreCanceled, err
		default:
			run.state, run.err = ExploreFailed, err
		}
		run.mu.Unlock()
		switch {
		case err == nil:
			s.exploresDone.Add(1)
		case errors.Is(err, sim.ErrCanceled):
			s.exploresCanceled.Add(1)
		default:
			s.exploresFailed.Add(1)
		}
	}()
	return run, nil
}

func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	// An empty body is a valid "defaults" request.
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, KindBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	run, aerr := s.SubmitExplore(req)
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests {
			sec := int(aerr.retryAfter.Seconds())
			w.Header().Set("Retry-After", fmt.Sprint(sec))
			writeJSON(w, aerr.code, ErrorReply{Error: aerr.msg, Kind: aerr.kind, RetryAfterSec: sec})
			return
		}
		writeError(w, aerr.code, aerr.kind, aerr.msg)
		return
	}
	w.Header().Set("Location", API+"/explore/"+run.ID)
	writeJSON(w, http.StatusAccepted, run.Status())
}

func (s *Server) handleExploreStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.exploreMu.Lock()
	run, ok := s.explores[id]
	s.exploreMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, fmt.Sprintf("no explore %q", id))
		return
	}
	writeJSON(w, http.StatusOK, run.Status())
}
