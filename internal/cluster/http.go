package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"ecsort/internal/service"
)

// Handler returns the coordinator's HTTP API: service.NewHandler's route
// table, so clients cannot tell a coordinator from a node. Collection
// operations are forwarded to the owning node; the health and metrics
// endpoints report per-node fleet state.
func (co *Coordinator) Handler() http.Handler { return service.NewHandler(co) }

// Live is the coordinator's liveness body.
func (co *Coordinator) Live() any {
	co.mu.RLock()
	collections := len(co.routes)
	co.mu.RUnlock()
	return map[string]any{
		"status":         "ok",
		"role":           "coordinator",
		"uptime_seconds": co.Uptime().Seconds(),
		"nodes":          len(co.nodes),
		"collections":    collections,
	}
}

// Ready aggregates readiness across the fleet: ready when every node is
// up and no collection is degraded; the body carries per-node state
// either way. One dead node degrades ONLY its own section — the report
// names it, and the other nodes' collections keep serving.
func (co *Coordinator) Ready(ctx context.Context) (bool, any) {
	states := co.Health(ctx)
	ready := true
	for _, st := range states {
		if !st.Up || len(st.Degraded) > 0 {
			ready = false
		}
	}
	body := map[string]any{"status": "ready", "nodes": states}
	if !ready {
		body["status"] = "degraded"
	}
	return ready, body
}

// WriteMetrics renders cluster-level metrics: fleet shape, per-node
// routing and health gauges, and placement counters. Node-internal
// metrics (WAL, folds, oracle counters) stay on each node's own
// /metrics — scraping both gives the full picture without the
// coordinator re-exporting anything.
func (co *Coordinator) WriteMetrics(ctx context.Context, w io.Writer) {
	states := co.Health(ctx)
	fmt.Fprintf(w, "# HELP ecsort_cluster_nodes Backend nodes in the cluster.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_nodes gauge\n")
	fmt.Fprintf(w, "ecsort_cluster_nodes %d\n", len(states))
	co.mu.RLock()
	fmt.Fprintf(w, "# HELP ecsort_cluster_collections Collections in the routing table.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_collections gauge\n")
	fmt.Fprintf(w, "ecsort_cluster_collections %d\n", len(co.routes))
	co.mu.RUnlock()
	fmt.Fprintf(w, "# HELP ecsort_cluster_node_up Whether the node answered its last exchange.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_node_up gauge\n")
	for _, st := range states {
		up := 0
		if st.Up {
			up = 1
		}
		fmt.Fprintf(w, "ecsort_cluster_node_up{node=%q} %d\n", st.Name, up)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_node_collections Collections owned by the node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_node_collections gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_node_collections{node=%q} %d\n", st.Name, st.Collections)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_routed_total Requests routed to the node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_routed_total counter\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_routed_total{node=%q} %d\n", st.Name, st.Routed)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_route_errors_total Transport-level failures per node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_route_errors_total counter\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_route_errors_total{node=%q} %d\n", st.Name, st.Errors)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_node_degraded_collections Degraded collections reported by the node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_node_degraded_collections gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_node_degraded_collections{node=%q} %d\n", st.Name, len(st.Degraded))
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_heavy_placements_total Collections the weight estimator steered off their hash slot.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_heavy_placements_total counter\n")
	fmt.Fprintf(w, "ecsort_cluster_heavy_placements_total %d\n", co.HeavyPlacements())
}
