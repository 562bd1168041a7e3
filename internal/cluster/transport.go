package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Transport carries one request payload to a backend node and returns
// its response payload. Implementations must be safe for concurrent
// Call use. A returned error means the exchange itself failed — the
// node is unreachable, the connection died, a frame failed its CRC —
// and the coordinator treats the node as down. A node that answered
// with a service failure is NOT a transport error: that failure rides
// inside the response payload (decoded to *service.RemoteError
// upstream), and the node is alive.
//
// The contract is message-passing-only: the bytes are the entire
// exchange. Callers must not retain req after Call returns, and must
// not mutate the returned slice's backing array across calls.
type Transport interface {
	Call(ctx context.Context, req []byte) ([]byte, error)
	Close() error
}

// ErrTransportClosed is returned by Call after Close.
var ErrTransportClosed = errors.New("cluster: transport closed")

// chanExchange is one in-flight ChanTransport request.
type chanExchange struct {
	req  []byte
	resp chan []byte
}

// ChanTransport is the in-process transport: requests cross a channel
// to a serving goroutine that runs the node's Handle, and responses
// cross back on a per-call channel. No memory is shared with the node
// beyond the copied payload — the same discipline as TCP, minus the
// socket — so tests and the default single-binary mode exercise the
// exact codec and ownership rules production traffic uses.
type ChanTransport struct {
	reqs    chan chanExchange
	quit    chan struct{}
	done    chan struct{}
	closing sync.Once
}

// NewChanTransport starts a serving goroutine answering via node.
// Close stops it.
func NewChanTransport(node *Node) *ChanTransport {
	t := &ChanTransport{
		reqs: make(chan chanExchange),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(t.done)
		for {
			select {
			case <-t.quit:
				return
			case ex := <-t.reqs:
				ex.resp <- node.Handle(ex.req)
			}
		}
	}()
	return t
}

// Call sends one request and waits for its response.
func (t *ChanTransport) Call(ctx context.Context, req []byte) ([]byte, error) {
	// Copy: the caller owns req only until Call returns, but the serving
	// goroutine reads it after the handoff.
	own := make([]byte, len(req))
	copy(own, req)
	ex := chanExchange{req: own, resp: make(chan []byte, 1)}
	select {
	case t.reqs <- ex:
	case <-t.quit:
		return nil, ErrTransportClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: chan transport: %w", ctx.Err())
	}
	select {
	case resp := <-ex.resp:
		return resp, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: chan transport: %w", ctx.Err())
	}
}

// Close stops the serving goroutine. In-flight Handle calls finish
// first (their response lands in the buffered per-call channel).
func (t *ChanTransport) Close() error {
	t.closing.Do(func() { close(t.quit) })
	<-t.done
	return nil
}
