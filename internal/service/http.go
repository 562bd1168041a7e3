package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecsort/internal/algo"
	"ecsort/internal/core"
	"ecsort/internal/oracle"
)

// API is the operation set the HTTP handler serves. A *Service answers
// it locally (Handler adapts it); a cluster coordinator answers it by
// routing each call to the owning node. One handler serves both, so a
// client cannot tell a coordinator from a single node. Every method
// gets the request's context.
type API interface {
	CreateCollection(ctx context.Context, key string, spec OracleSpec) (CollectionInfo, error)
	DropCollection(ctx context.Context, key string) error
	Ingest(ctx context.Context, key string, items []int, flush bool) (IngestResult, error)
	DeleteItem(ctx context.Context, key string, element int) (ChurnResult, error)
	InvalidateClass(ctx context.Context, key string, class int, flush bool) (ChurnResult, error)
	Classes(ctx context.Context, key string, fresh bool) (*Snapshot, error)
	ClassOf(ctx context.Context, key string, element int, fresh bool) (ClassView, error)
	Stats(ctx context.Context, key string) (CollectionInfo, error)
	List(ctx context.Context) []CollectionInfo
	UpdateResilience(ctx context.Context, key string, rs ResilienceSpec) error

	// Role extras: what a node and a coordinator report about
	// themselves differs.

	// Live is the liveness body (/healthz, /healthz/live).
	Live() any
	// Ready is the readiness verdict and body (/healthz/ready).
	Ready(ctx context.Context) (ok bool, body any)
	// WriteMetrics writes the Prometheus text exposition (/metrics).
	WriteMetrics(ctx context.Context, w io.Writer)
}

// Handler returns the service's HTTP API; see NewHandler for the routes.
func (s *Service) Handler() http.Handler { return NewHandler(local{s}) }

// NewHandler returns the HTTP API over api — the one route table both a
// single node and a cluster coordinator serve:
//
//	PUT    /v1/collections/{key}         create a collection (body: OracleSpec; "algorithm" picks the regimen)
//	DELETE /v1/collections/{key}         drop a collection
//	GET    /v1/collections               list collections
//	GET    /v1/algorithms                list the sorting-regimen registry (name, mode, hints)
//	POST   /v1/collections/{key}/items   batch add (body: {"items":[...]}; ?flush=1 forces a flush)
//	DELETE /v1/collections/{key}/items/{element}    remove one element (WAL-logged; re-addable later)
//	GET    /v1/collections/{key}/classes current partition (?fresh=1 flushes first)
//	GET    /v1/collections/{key}/classes/{element}  one element's class (O(1) index lookup; ?fresh=1 flushes first)
//	POST   /v1/collections/{key}/classes/{class}/invalidate  withdraw a class for re-verification (?flush=1 re-folds now)
//	GET    /v1/collections/{key}/stats   per-collection counters + snapshot
//	PATCH  /v1/collections/{key}/resilience  live-update the resilience profile (body: ResilienceSpec)
//	GET    /healthz                      liveness (also /healthz/live)
//	GET    /healthz/ready                readiness: 503 while any collection is degraded or recovery failed
//	                                     (on a coordinator: or any node is down)
//	GET    /metrics                      Prometheus-style text metrics
//
// All request and response bodies are compact JSON except /metrics.
// Errors map to statuses through StatusOf. Writes against a degraded
// collection (oracle circuit breaker open, or its node down) get 503
// with a Retry-After header; reads keep serving the last published
// snapshot. /v1/algorithms is answered from the compiled-in registry,
// identical on every binary.
func NewHandler(api API) http.Handler {
	h := handler{api}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.live)
	mux.HandleFunc("GET /healthz/live", h.live)
	mux.HandleFunc("GET /healthz/ready", h.ready)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /v1/collections", h.list)
	mux.HandleFunc("GET /v1/algorithms", h.algorithms)
	mux.HandleFunc("PUT /v1/collections/{key}", h.create)
	mux.HandleFunc("DELETE /v1/collections/{key}", h.drop)
	mux.HandleFunc("POST /v1/collections/{key}/items", h.ingest)
	mux.HandleFunc("DELETE /v1/collections/{key}/items/{element}", h.deleteItem)
	mux.HandleFunc("GET /v1/collections/{key}/classes", h.classes)
	mux.HandleFunc("GET /v1/collections/{key}/classes/{element}", h.classOf)
	mux.HandleFunc("POST /v1/collections/{key}/classes/{class}/invalidate", h.invalidate)
	mux.HandleFunc("GET /v1/collections/{key}/stats", h.stats)
	mux.HandleFunc("PATCH /v1/collections/{key}/resilience", h.updateResilience)
	return mux
}

// RemoteError is an error that crossed the cluster wire: the owning
// node answered, but with a failure. Status is the node's StatusOf
// mapping, so a coordinator relays it verbatim, and Go callers can
// still switch on it. RetryAfter is non-zero only for rejections that
// carried a Retry-After.
type RemoteError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return e.Msg }

// StatusOf is the one error → status table: the HTTP handler writes it,
// and a cluster node encodes it into its wire error responses, so both
// roles answer every failure alike. retryAfter is positive exactly when
// the response carries Retry-After (degraded rejections).
func StatusOf(err error) (status int, retryAfter time.Duration) {
	var de *DegradedError
	if errors.As(err, &de) {
		return http.StatusServiceUnavailable, de.RetryAfter
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Status, re.RetryAfter
	}
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, 0
	case errors.Is(err, ErrExists):
		return http.StatusConflict, 0
	case errors.Is(err, ErrBadItem), errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, 0
	case errors.Is(err, core.ErrConstRoundFailed), errors.Is(err, core.ErrAdaptiveExhausted):
		// A const-round fold failed its λ promise on the collection's
		// current sub-universe — a documented, retryable regimen outcome
		// (the buffered items survive; a later fold may succeed as data
		// arrives), not a server bug.
		return http.StatusConflict, 0
	case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled):
		// context.Canceled surfaces from folds aborted by Close, and from
		// a coordinator call whose client went away.
		return http.StatusServiceUnavailable, 0
	}
	return http.StatusInternalServerError, 0
}

// ingestRequest is the POST items body.
type ingestRequest struct {
	Items []int `json:"items"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already sent: an encode or write failure here
	// (a client gone mid-response) has no one left to report to.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes err with its StatusOf status.
func writeError(w http.ResponseWriter, err error) {
	status, ra := StatusOf(err)
	if ra > 0 {
		// Ceil to whole seconds: a sub-second wait must not round down
		// to Retry-After: 0, which would invite an immediate hammer.
		secs := int64((ra + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeBadRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// decodeBody parses a JSON request body into v, rejecting unknown fields
// so client typos fail loudly.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// boolParam interprets ?name=1 / true / yes (any case) as true.
func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// intPath parses the integer path segment name, answering 400 itself
// when it is not one.
func intPath(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		writeBadRequest(w, fmt.Errorf("service: bad %s %q: not an integer", name, r.PathValue(name)))
		return 0, false
	}
	return v, true
}

// handler serves NewHandler's routes over one API.
type handler struct{ api API }

func (h handler) live(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.api.Live())
}

// ready is the readiness probe: 200 when the API reports ready, 503
// with its body otherwise. Liveness stays 200 throughout: a degraded
// server is alive, still serving snapshots, and must not be restarted
// into losing them.
func (h handler) ready(w http.ResponseWriter, r *http.Request) {
	ok, body := h.api.Ready(r.Context())
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (h handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	h.api.WriteMetrics(r.Context(), w)
}

func (h handler) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"collections": h.api.List(r.Context())})
}

// algorithms serves the sorting-regimen registry: the names a
// collection spec's "algorithm" field accepts, each with its
// comparison-model mode, consumed/required hints, and round complexity.
func (h handler) algorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"default":    AlgorithmIncremental,
		"algorithms": algo.Infos(),
	})
}

func (h handler) create(w http.ResponseWriter, r *http.Request) {
	var spec OracleSpec
	if err := decodeBody(r, &spec); err != nil {
		writeBadRequest(w, err)
		return
	}
	info, err := h.api.CreateCollection(r.Context(), r.PathValue("key"), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"key":       info.Key,
		"kind":      info.Kind,
		"universe":  info.Universe,
		"algorithm": info.Algorithm,
	})
}

func (h handler) drop(w http.ResponseWriter, r *http.Request) {
	if err := h.api.DropCollection(r.Context(), r.PathValue("key")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h handler) ingest(w http.ResponseWriter, r *http.Request) {
	// The hottest write path decodes through the pooled streaming
	// decoder (ingestdecode.go) instead of decodeBody: items land in a
	// reusable arena with zero per-item allocations. Ingest copies what
	// it keeps (a node's WAL encode buffer and sorter Adds, a
	// coordinator's wire body), so the arena is safe to recycle once
	// the call returns.
	d := getItemsDecoder()
	items, err := d.decode(io.LimitReader(r.Body, maxIngestBody))
	if err != nil {
		putItemsDecoder(d)
		writeBadRequest(w, err)
		return
	}
	res, err := h.api.Ingest(r.Context(), r.PathValue("key"), items, boolParam(r, "flush"))
	putItemsDecoder(d)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, res)
}

func (h handler) deleteItem(w http.ResponseWriter, r *http.Request) {
	element, ok := intPath(w, r, "element")
	if !ok {
		return
	}
	res, err := h.api.DeleteItem(r.Context(), r.PathValue("key"), element)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h handler) invalidate(w http.ResponseWriter, r *http.Request) {
	class, ok := intPath(w, r, "class")
	if !ok {
		return
	}
	res, err := h.api.InvalidateClass(r.Context(), r.PathValue("key"), class, boolParam(r, "flush"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, res)
}

func (h handler) classes(w http.ResponseWriter, r *http.Request) {
	snap, err := h.api.Classes(r.Context(), r.PathValue("key"), boolParam(r, "fresh"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (h handler) classOf(w http.ResponseWriter, r *http.Request) {
	element, ok := intPath(w, r, "element")
	if !ok {
		return
	}
	view, err := h.api.ClassOf(r.Context(), r.PathValue("key"), element, boolParam(r, "fresh"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// updateResilience live-updates a collection's resilience profile —
// votes, timeouts, breaker tuning — without recreating it. The update
// is WAL-logged, so it survives a restart.
func (h handler) updateResilience(w http.ResponseWriter, r *http.Request) {
	var rs ResilienceSpec
	if err := decodeBody(r, &rs); err != nil {
		writeBadRequest(w, err)
		return
	}
	key := r.PathValue("key")
	if err := h.api.UpdateResilience(r.Context(), key, rs); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "resilience": rs})
}

func (h handler) stats(w http.ResponseWriter, r *http.Request) {
	info, err := h.api.Stats(r.Context(), r.PathValue("key"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// local adapts *Service to API. The local service takes no request
// context, so every method drops it.
type local struct{ s *Service }

func (l local) CreateCollection(_ context.Context, key string, spec OracleSpec) (CollectionInfo, error) {
	if err := l.s.CreateCollection(key, spec); err != nil {
		return CollectionInfo{}, err
	}
	_, algoName, _ := spec.algorithm() // validated by CreateCollection
	return CollectionInfo{Key: key, Kind: spec.Kind, Algorithm: algoName, Universe: spec.N()}, nil
}

func (l local) DropCollection(_ context.Context, key string) error { return l.s.DropCollection(key) }

func (l local) Ingest(_ context.Context, key string, items []int, flush bool) (IngestResult, error) {
	return l.s.Ingest(key, items, flush)
}

func (l local) DeleteItem(_ context.Context, key string, element int) (ChurnResult, error) {
	return l.s.DeleteItem(key, element)
}

func (l local) InvalidateClass(_ context.Context, key string, class int, flush bool) (ChurnResult, error) {
	return l.s.InvalidateClass(key, class, flush)
}

func (l local) Classes(_ context.Context, key string, fresh bool) (*Snapshot, error) {
	return l.s.Classes(key, fresh)
}

func (l local) ClassOf(_ context.Context, key string, element int, fresh bool) (ClassView, error) {
	return l.s.ClassOf(key, element, fresh)
}

func (l local) Stats(_ context.Context, key string) (CollectionInfo, error) {
	return l.s.CollectionStats(key)
}

func (l local) List(context.Context) []CollectionInfo { return l.s.Collections() }

func (l local) UpdateResilience(_ context.Context, key string, rs ResilienceSpec) error {
	return l.s.UpdateResilience(key, rs)
}

func (l local) Live() any {
	return map[string]any{
		"status":         "ok",
		"uptime_seconds": l.s.Uptime().Seconds(),
		"shards":         len(l.s.shards),
		"collections":    len(l.s.Collections()),
	}
}

func (l local) Ready(context.Context) (bool, any)           { return l.s.readiness() }
func (l local) WriteMetrics(_ context.Context, w io.Writer) { l.s.writeMetrics(w) }

// readiness is ready when every collection's oracle breaker admits
// writes; otherwise its body lists the degraded collections with their
// breaker state and probe cooldown.
func (s *Service) readiness() (bool, any) {
	type degradedInfo struct {
		Key               string  `json:"key"`
		Breaker           string  `json:"breaker"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
	}
	var degraded []degradedInfo
	collections := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			collections++
			if ra, bad := c.degraded(); bad {
				degraded = append(degraded, degradedInfo{
					Key:               c.key,
					Breaker:           c.res.State().String(),
					RetryAfterSeconds: ra.Seconds(),
				})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(degraded, func(i, j int) bool { return degraded[i].Key < degraded[j].Key })
	body := map[string]any{
		"status":      "ready",
		"collections": collections,
		"recovery":    s.recovery,
	}
	if len(degraded) > 0 {
		body["status"] = "degraded"
		body["degraded"] = degraded
		return false, body
	}
	return true, body
}

// writeMetrics renders Prometheus-style text metrics: service-wide
// totals plus per-collection series, labeled by collection key. Each
// collection's snapshot is loaded exactly once per scrape, so every
// series of one collection comes from the same flush.
func (s *Service) writeMetrics(w io.Writer) {
	var infos []CollectionInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			infos = append(infos, c.info(true))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	var totalElems, totalPending, totalBatches, totalFlushes int64
	for _, in := range infos {
		totalElems += in.Ingested
		totalPending += in.Pending
		totalBatches += in.Batches
		totalFlushes += in.Flushes
	}
	fmt.Fprintf(w, "# HELP ecsort_collections Number of live collections.\n")
	fmt.Fprintf(w, "# TYPE ecsort_collections gauge\n")
	fmt.Fprintf(w, "ecsort_collections %d\n", len(infos))
	fmt.Fprintf(w, "# HELP ecsort_elements_ingested_total Elements accepted across all collections.\n")
	fmt.Fprintf(w, "# TYPE ecsort_elements_ingested_total counter\n")
	fmt.Fprintf(w, "ecsort_elements_ingested_total %d\n", totalElems)
	fmt.Fprintf(w, "# HELP ecsort_elements_pending Buffered elements awaiting a flush.\n")
	fmt.Fprintf(w, "# TYPE ecsort_elements_pending gauge\n")
	fmt.Fprintf(w, "ecsort_elements_pending %d\n", totalPending)
	fmt.Fprintf(w, "# HELP ecsort_batches_total Accepted ingest batches.\n")
	fmt.Fprintf(w, "# TYPE ecsort_batches_total counter\n")
	fmt.Fprintf(w, "ecsort_batches_total %d\n", totalBatches)
	fmt.Fprintf(w, "# HELP ecsort_flushes_total Compounding flush rounds executed.\n")
	fmt.Fprintf(w, "# TYPE ecsort_flushes_total counter\n")
	fmt.Fprintf(w, "ecsort_flushes_total %d\n", totalFlushes)

	// Execution runtime: the persistent pool every collection's session
	// runs its parallel rounds on.
	rs := s.pool.Stats()
	fmt.Fprintf(w, "# HELP ecsort_runtime_workers Parallel width of the shared execution pool.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_workers gauge\n")
	fmt.Fprintf(w, "ecsort_runtime_workers %d\n", rs.Workers)
	fmt.Fprintf(w, "# HELP ecsort_runtime_jobs_total Parallel round jobs dispatched to the pool.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_jobs_total counter\n")
	fmt.Fprintf(w, "ecsort_runtime_jobs_total %d\n", rs.Jobs)
	fmt.Fprintf(w, "# HELP ecsort_runtime_chunks_total Work chunks executed across all pool jobs.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_chunks_total counter\n")
	fmt.Fprintf(w, "ecsort_runtime_chunks_total %d\n", rs.Chunks)
	fmt.Fprintf(w, "# HELP ecsort_runtime_inline_rounds_total Rounds executed serially on the submitting goroutine.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_inline_rounds_total counter\n")
	fmt.Fprintf(w, "ecsort_runtime_inline_rounds_total %d\n", rs.Inline)

	// Backpressure: shard op-queue depth (writer backlog under overload)
	// and batch-fold latency (how long Flush+publish holds a shard).
	fmt.Fprintf(w, "# HELP ecsort_shard_queue_depth Queued writer ops per shard.\n")
	fmt.Fprintf(w, "# TYPE ecsort_shard_queue_depth gauge\n")
	for i, sh := range s.shards {
		fmt.Fprintf(w, "ecsort_shard_queue_depth{shard=\"%d\"} %d\n", i, len(sh.ops))
	}
	fmt.Fprintf(w, "# HELP ecsort_shard_queue_capacity Bound of each shard's op queue.\n")
	fmt.Fprintf(w, "# TYPE ecsort_shard_queue_capacity gauge\n")
	fmt.Fprintf(w, "ecsort_shard_queue_capacity %d\n", cap(s.shards[0].ops))
	fmt.Fprintf(w, "# HELP ecsort_fold_total Batch folds (flush+publish) executed on shard goroutines.\n")
	fmt.Fprintf(w, "# TYPE ecsort_fold_total counter\n")
	fmt.Fprintf(w, "ecsort_fold_total %d\n", s.folds.Load())
	fmt.Fprintf(w, "# HELP ecsort_fold_duration_seconds_total Cumulative batch-fold latency.\n")
	fmt.Fprintf(w, "# TYPE ecsort_fold_duration_seconds_total counter\n")
	fmt.Fprintf(w, "ecsort_fold_duration_seconds_total %.9f\n", float64(s.foldNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP ecsort_fold_last_duration_seconds Latency of the most recent batch fold.\n")
	fmt.Fprintf(w, "# TYPE ecsort_fold_last_duration_seconds gauge\n")
	fmt.Fprintf(w, "ecsort_fold_last_duration_seconds %.9f\n", float64(s.lastFoldNanos.Load())/1e9)

	// Durability: WAL append/fsync activity, checkpoint progress, and
	// what the last boot recovered. ecsort_durable is 0 for a
	// memory-only service, and the families below then read as zeros.
	fmt.Fprintf(w, "# HELP ecsort_durable Whether the service runs with a write-ahead-logged data directory.\n")
	fmt.Fprintf(w, "# TYPE ecsort_durable gauge\n")
	fmt.Fprintf(w, "ecsort_durable %d\n", boolMetric(s.recovery.Durable))
	fmt.Fprintf(w, "# HELP ecsort_wal_appends_total Records appended across all shard WALs.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_appends_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_appends_total %d\n", s.walCtr.Appends.Load())
	fmt.Fprintf(w, "# HELP ecsort_wal_bytes_total Framed bytes written to shard WALs.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_bytes_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_bytes_total %d\n", s.walCtr.Bytes.Load())
	fmt.Fprintf(w, "# HELP ecsort_wal_fsyncs_total WAL fsyncs issued by the durability policy.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_fsyncs_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_fsyncs_total %d\n", s.walCtr.Fsyncs.Load())
	fmt.Fprintf(w, "# HELP ecsort_wal_fsync_duration_seconds_total Cumulative time spent in WAL fsync.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_fsync_duration_seconds_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_fsync_duration_seconds_total %.9f\n", float64(s.walCtr.FsyncNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP ecsort_wal_last_fsync_duration_seconds Duration of the most recent WAL fsync.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_last_fsync_duration_seconds gauge\n")
	fmt.Fprintf(w, "ecsort_wal_last_fsync_duration_seconds %.9f\n", float64(s.walCtr.LastFsyncNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP ecsort_wal_rotations_total Size-triggered WAL segment rotations (no checkpoint).\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_rotations_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_rotations_total %d\n", s.walRotations.Load())
	fmt.Fprintf(w, "# HELP ecsort_checkpoints_total Shard checkpoints written (snapshot + WAL truncation).\n")
	fmt.Fprintf(w, "# TYPE ecsort_checkpoints_total counter\n")
	fmt.Fprintf(w, "ecsort_checkpoints_total %d\n", s.checkpoints.Load())
	fmt.Fprintf(w, "# HELP ecsort_checkpoint_errors_total Failed checkpoint attempts.\n")
	fmt.Fprintf(w, "# TYPE ecsort_checkpoint_errors_total counter\n")
	fmt.Fprintf(w, "ecsort_checkpoint_errors_total %d\n", s.checkpointErrors.Load())
	fmt.Fprintf(w, "# HELP ecsort_checkpoint_last_age_seconds Seconds since the most recent checkpoint; -1 before the first.\n")
	fmt.Fprintf(w, "# TYPE ecsort_checkpoint_last_age_seconds gauge\n")
	if last := s.lastCheckpointNano.Load(); last > 0 {
		fmt.Fprintf(w, "ecsort_checkpoint_last_age_seconds %.3f\n", time.Since(time.Unix(0, last)).Seconds())
	} else {
		fmt.Fprintf(w, "ecsort_checkpoint_last_age_seconds -1\n")
	}
	fmt.Fprintf(w, "# HELP ecsort_recovery_duration_seconds Wall time the last boot spent replaying durable state.\n")
	fmt.Fprintf(w, "# TYPE ecsort_recovery_duration_seconds gauge\n")
	fmt.Fprintf(w, "ecsort_recovery_duration_seconds %.9f\n", s.recovery.Duration.Seconds())
	fmt.Fprintf(w, "# HELP ecsort_recovery_records_replayed WAL records replayed by the last boot.\n")
	fmt.Fprintf(w, "# TYPE ecsort_recovery_records_replayed gauge\n")
	fmt.Fprintf(w, "ecsort_recovery_records_replayed %d\n", s.recovery.Records)
	fmt.Fprintf(w, "# HELP ecsort_recovery_torn_tails Segments whose crash-torn final record the last boot truncated.\n")
	fmt.Fprintf(w, "# TYPE ecsort_recovery_torn_tails gauge\n")
	fmt.Fprintf(w, "ecsort_recovery_torn_tails %d\n", s.recovery.TornTails)

	// Self-repair daemon: sweep/sample/divergence/correction totals plus
	// how recently a divergence was last seen (-1 before the first).
	for _, m := range []struct {
		name, help string
		value      int64
	}{
		{"ecsort_repair_sweeps_total", "Repair sweeps executed.", s.repairSweeps.Load()},
		{"ecsort_repair_samples_total", "Element pairs re-verified against their oracle.", s.repairSamples.Load()},
		{"ecsort_repair_divergences_total", "Sampled pairs whose oracle verdict contradicted the published partition.", s.repairDivergences.Load()},
		{"ecsort_repair_corrections_total", "Divergences repaired (classes withdrawn and re-folded).", s.repairCorrections.Load()},
		{"ecsort_repair_skipped_degraded_total", "Collection sweeps skipped because the oracle breaker was open.", s.repairSkipped.Load()},
		{"ecsort_repair_errors_total", "Failed repair oracle asks and correction attempts.", s.repairErrors.Load()},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.value)
	}
	fmt.Fprintf(w, "# HELP ecsort_repair_last_divergence_age_seconds Seconds since the repair daemon last saw a divergence; -1 before the first.\n")
	fmt.Fprintf(w, "# TYPE ecsort_repair_last_divergence_age_seconds gauge\n")
	if last := s.lastDivergenceNano.Load(); last > 0 {
		fmt.Fprintf(w, "ecsort_repair_last_divergence_age_seconds %.3f\n", time.Since(time.Unix(0, last)).Seconds())
	} else {
		fmt.Fprintf(w, "ecsort_repair_last_divergence_age_seconds -1\n")
	}

	// Fault tolerance: per-collection degraded/breaker gauges and the
	// resilience middleware's counters, only for collections that carry
	// the middleware.
	fmt.Fprintf(w, "# HELP ecsort_collection_degraded Whether the collection's oracle breaker currently refuses writes.\n")
	fmt.Fprintf(w, "# TYPE ecsort_collection_degraded gauge\n")
	for _, in := range infos {
		fmt.Fprintf(w, "ecsort_collection_degraded{collection=%q} %d\n", in.Key, boolMetric(in.RetryAfterSeconds > 0))
	}
	resStats := make(map[string]oracle.ResilientStats)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			if c.res != nil {
				resStats[c.key] = c.res.Stats()
			}
		}
		sh.mu.RUnlock()
	}
	resKeys := make([]string, 0, len(resStats))
	for k := range resStats {
		resKeys = append(resKeys, k)
	}
	sort.Strings(resKeys)
	for _, m := range []struct {
		name, help string
		value      func(oracle.ResilientStats) int64
	}{
		{"ecsort_oracle_attempts_total", "Oracle calls issued through the resilience middleware (incl. retries and votes).",
			func(st oracle.ResilientStats) int64 { return st.Attempts }},
		{"ecsort_oracle_retries_total", "Backed-off oracle re-attempts.",
			func(st oracle.ResilientStats) int64 { return st.Retries }},
		{"ecsort_oracle_failures_total", "Oracle asks that exhausted their retry budget.",
			func(st oracle.ResilientStats) int64 { return st.Failures }},
		{"ecsort_oracle_fast_fails_total", "Oracle calls rejected by an open circuit breaker.",
			func(st oracle.ResilientStats) int64 { return st.FastFails }},
		{"ecsort_oracle_breaker_trips_total", "Circuit breaker trips.",
			func(st oracle.ResilientStats) int64 { return st.Trips }},
		{"ecsort_oracle_batch_asks_total", "Whole-chunk exchanges issued through the middleware's batch path.",
			func(st oracle.ResilientStats) int64 { return st.BatchAsks }},
		{"ecsort_oracle_batch_fallbacks_total", "Pairs re-asked individually after a batch exchange failed them.",
			func(st oracle.ResilientStats) int64 { return st.BatchFallbacks }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, k := range resKeys {
			fmt.Fprintf(w, "%s{collection=%q} %d\n", m.name, k, m.value(resStats[k]))
		}
	}

	// Batch-oracle amortization, service-wide: rounds is SameBatch
	// invocations (one per worker-pool chunk), pairs the tests they
	// carried — pairs/rounds is the amortization factor the batch path
	// buys over per-pair dispatch.
	batchRounds, batchPairs := s.BatchOracleStats()
	fmt.Fprintf(w, "# HELP ecsort_oracle_batch_rounds_total Whole-chunk oracle invocations across all collections.\n")
	fmt.Fprintf(w, "# TYPE ecsort_oracle_batch_rounds_total counter\n")
	fmt.Fprintf(w, "ecsort_oracle_batch_rounds_total %d\n", batchRounds)
	fmt.Fprintf(w, "# HELP ecsort_oracle_batch_pairs_total Equivalence tests answered through whole-chunk oracle invocations.\n")
	fmt.Fprintf(w, "# TYPE ecsort_oracle_batch_pairs_total counter\n")
	fmt.Fprintf(w, "ecsort_oracle_batch_pairs_total %d\n", batchPairs)

	// Per-collection gauges from the published snapshots (comparisons,
	// rounds, widest round, class counts), never touching the writers.
	fmt.Fprintf(w, "# HELP ecsort_collection_classes Classes in the published snapshot.\n")
	fmt.Fprintf(w, "# TYPE ecsort_collection_classes gauge\n")
	for _, in := range infos {
		fmt.Fprintf(w, "ecsort_collection_classes{collection=%q} %d\n", in.Key, in.Classes)
	}
	for _, m := range []struct {
		name, typ, help string
		value           func(*Snapshot) int64
	}{
		{"ecsort_collection_comparisons_total", "counter", "Equivalence tests charged to the collection's session.",
			func(sn *Snapshot) int64 { return sn.Stats.Comparisons }},
		{"ecsort_collection_rounds_total", "counter", "Physical comparison rounds executed.",
			func(sn *Snapshot) int64 { return int64(sn.Stats.Rounds) }},
		{"ecsort_collection_max_round_size", "gauge", "Widest physical round so far.",
			func(sn *Snapshot) int64 { return int64(sn.Stats.MaxRoundSize) }},
		{"ecsort_collection_elements", "gauge", "Elements covered by the published snapshot.",
			func(sn *Snapshot) int64 { return int64(sn.Size) }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, in := range infos {
			fmt.Fprintf(w, "%s{collection=%q} %d\n", m.name, in.Key, m.value(in.Snapshot))
		}
	}

	// Churn counters: deletes, class withdrawals, repair corrections.
	for _, m := range []struct {
		name, help string
		value      func(CollectionInfo) int64
	}{
		{"ecsort_collection_deleted_total", "Elements removed by delete calls.",
			func(in CollectionInfo) int64 { return in.Deleted }},
		{"ecsort_collection_invalidated_total", "Class withdrawals (explicit invalidations plus repair corrections).",
			func(in CollectionInfo) int64 { return in.Invalidated }},
		{"ecsort_collection_repaired_total", "Divergences the repair daemon corrected.",
			func(in CollectionInfo) int64 { return in.Repaired }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, in := range infos {
			fmt.Fprintf(w, "%s{collection=%q} %d\n", m.name, in.Key, m.value(in))
		}
	}
}

// boolMetric renders a bool as the 0/1 gauge Prometheus expects.
func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}
