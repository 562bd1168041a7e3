package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"ecsort/internal/service"
)

// Node is one cluster backend: a service.Service answering the wire
// protocol. The same Node serves ChanTransport (Handle called from the
// transport's goroutine) and TCPTransport (ServeTCP's per-connection
// readers) — both paths run the identical decode → dispatch → encode
// sequence, which is what makes the two transports bit-identical by
// construction.
type Node struct {
	svc   *service.Service
	start time.Time
	// logf receives frame-corruption and connection-failure reports;
	// defaults to log.Printf. Corruption is never silent.
	logf func(format string, args ...any)

	corruptFrames atomic.Int64
	requests      atomic.Int64
}

// NewNode wraps svc as a cluster backend. The node does not own the
// service's lifecycle: callers close svc themselves after the node's
// listeners are down.
func NewNode(svc *service.Service) *Node {
	return &Node{svc: svc, start: time.Now(), logf: log.Printf}
}

// SetLogger redirects the node's corruption/connection reports.
func (n *Node) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n.logf = logf
}

// CorruptFrames reports how many integrity-failed frames this node has
// rejected (each one also closed its connection).
func (n *Node) CorruptFrames() int64 { return n.corruptFrames.Load() }

// Handle answers one decoded request payload with a response payload.
// Errors never escape as Go errors: they are encoded into the response
// so the transport stays a dumb byte pipe.
func (n *Node) Handle(req []byte) []byte {
	n.requests.Add(1)
	o, key, body, err := decodeRequest(req)
	if err != nil {
		return encodeErr(nil, http.StatusBadRequest, 0, err.Error())
	}
	out, err := n.dispatch(o, key, body)
	if err != nil {
		return encodeFailure(err)
	}
	return encodeOK(nil, out)
}

// encodeFailure encodes a failed operation with service.StatusOf — the
// status and Retry-After a single node's HTTP layer would answer — so a
// coordinator relays exactly that.
func encodeFailure(err error) []byte {
	status, ra := service.StatusOf(err)
	return encodeErr(nil, status, ra, err.Error())
}

// dispatch runs one operation against the local service and marshals
// its result.
func (n *Node) dispatch(o op, key string, body []byte) ([]byte, error) {
	switch o {
	case opCreate:
		var spec service.OracleSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, fmt.Errorf("%w: undecodable spec: %v", service.ErrBadSpec, err)
		}
		if err := n.svc.CreateCollection(key, spec); err != nil {
			return nil, err
		}
		info, err := n.svc.CollectionStats(key)
		if err != nil {
			return nil, err
		}
		info.Snapshot = nil // create responses carry identity, not data
		return json.Marshal(info)
	case opDrop:
		return nil, n.svc.DropCollection(key)
	case opIngest:
		var a ingestArgs
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("%w: undecodable ingest body: %v", service.ErrBadItem, err)
		}
		res, err := n.svc.Ingest(key, a.Items, a.Flush)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case opDelete:
		var a deleteArgs
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("%w: undecodable delete body: %v", service.ErrBadItem, err)
		}
		res, err := n.svc.DeleteItem(key, a.Element)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case opInvalidate:
		var a invalidateArgs
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("%w: undecodable invalidate body: %v", service.ErrBadItem, err)
		}
		res, err := n.svc.InvalidateClass(key, a.Class, a.Flush)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case opClasses:
		var a classArgs
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("%w: undecodable classes body: %v", service.ErrBadItem, err)
		}
		snap, err := n.svc.Classes(key, a.Fresh)
		if err != nil {
			return nil, err
		}
		return json.Marshal(snap)
	case opClassOf:
		var a classOfArgs
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("%w: undecodable class-of body: %v", service.ErrBadItem, err)
		}
		view, err := n.svc.ClassOf(key, a.Element, a.Fresh)
		if err != nil {
			return nil, err
		}
		return json.Marshal(view)
	case opStats:
		info, err := n.svc.CollectionStats(key)
		if err != nil {
			return nil, err
		}
		return json.Marshal(info)
	case opList:
		return json.Marshal(n.svc.Collections())
	case opHealth:
		h := nodeHealth{UptimeSecs: time.Since(n.start).Seconds(), Corrupt: n.corruptFrames.Load()}
		for _, info := range n.svc.Collections() {
			h.Collections++
			if info.RetryAfterSeconds > 0 {
				h.Degraded = append(h.Degraded, DegradedBackend{
					Key:               info.Key,
					Breaker:           info.Breaker,
					RetryAfterSeconds: info.RetryAfterSeconds,
				})
			}
		}
		return json.Marshal(h)
	case opResilience:
		var rs service.ResilienceSpec
		if err := json.Unmarshal(body, &rs); err != nil {
			return nil, fmt.Errorf("%w: undecodable resilience body: %v", service.ErrBadSpec, err)
		}
		return nil, n.svc.UpdateResilience(key, rs)
	}
	return nil, fmt.Errorf("cluster: unhandled op %d", o)
}
