package wire

// Session handshake and the msgExecute request.
//
// Hello: the first frame on every connection is msgHello (version,
// tenant). When the version equals helloVersion the server answers
// msgOK (credit window, inbound frame bound), both set by the server
// alone: the client streams under that window and lowers its outbound
// frame bound to the advertised one. Any other first frame, or any
// other version, gets a msgErr carrying ErrProtocolVersion and the
// server closes the connection, so a mismatched peer fails at dial
// rather than mid-query.
//
// Execute: msgExecute has fixed fields, in order — the query, the
// trace id ("" = untraced) followed by the parent span id when the id
// is non-empty, and the remaining time budget (µs, 0 = none). The
// server rejects trailing bytes. The client decrements the budget by
// the link's observed one-way latency (half the RTT EWMA) so the
// server-side deadline never outlives the client's; the server
// enforces it with context.WithTimeout around the fragment's execution,
// so a propagated deadline cancels the component store's work
// mid-scan.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gis/internal/source"
)

// helloVersion is the protocol revision announced in msgHello.
const helloVersion = 2

// ErrProtocolVersion marks a connection whose peer did not open with a
// msgHello of this build's protocol version. The server reports it in
// a msgErr and closes the connection; the client's dial fails with it.
var ErrProtocolVersion = errors.New("wire: protocol version mismatch")

// defaultCreditWindow is how many msgRows frames a server lets a
// stream have in flight before requiring a credit grant. The window
// trades stream throughput against peak per-stream buffering: at 256
// rows per frame, 32 frames keep ~8k rows in flight.
const defaultCreditWindow = 32

// minCreditWindow keeps the grant protocol deadlock-free: the client
// grants at half the window, so the window must be at least 2.
const minCreditWindow = 2

func (e *Encoder) hello(tenant string) {
	e.Uvarint(helloVersion)
	e.String(tenant)
}

// hello decodes a msgHello payload and returns its tenant. Any version
// other than helloVersion fails with ErrProtocolVersion.
func (d *Decoder) hello() (string, error) {
	v, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if v != helloVersion {
		return "", fmt.Errorf("%w: peer sent version %d, want %d", ErrProtocolVersion, v, helloVersion)
	}
	tenant, err := d.String()
	if err != nil {
		return "", err
	}
	return tenant, d.end()
}

// helloReply encodes the server's msgOK answer to msgHello: the credit
// window it grants every stream and its inbound frame bound.
func (e *Encoder) helloReply(window, maxRead int) {
	e.Uvarint(uint64(window))
	e.Uvarint(uint64(maxRead))
}

func (d *Decoder) helloReply() (window, maxRead int, err error) {
	w, err := d.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	m, err := d.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(w), int(m), d.end()
}

// execute encodes a msgExecute payload.
func (e *Encoder) execute(q *source.Query, traceID string, parentSpan uint64, budget time.Duration) error {
	if err := e.Query(q); err != nil {
		return err
	}
	e.String(traceID)
	if traceID != "" {
		e.Uvarint(parentSpan)
	}
	e.Uvarint(uint64(max(budget.Microseconds(), 0)))
	return nil
}

// executeReq is a decoded msgExecute request.
type executeReq struct {
	q          *source.Query
	traceID    string // "" = untraced
	parentSpan uint64
	budget     time.Duration // 0 = no deadline
}

func (d *Decoder) execute() (executeReq, error) {
	var r executeReq
	var err error
	if r.q, err = d.Query(); err != nil {
		return r, err
	}
	if r.traceID, err = d.String(); err != nil {
		return r, err
	}
	if r.traceID != "" {
		if r.parentSpan, err = d.Uvarint(); err != nil {
			return r, err
		}
	}
	us, err := d.Uvarint()
	if err != nil {
		return r, err
	}
	r.budget = time.Duration(us) * time.Microsecond
	return r, d.end()
}

// executeBudget derives the budget to ship with a query: the context's
// remaining time minus the link's observed one-way latency, so the
// remote deadline expires no later than the local one. Returns 0 (no
// budget) for contexts without a deadline, and ok=false when the
// budget is already exhausted — the caller should fail fast instead of
// shipping a dead query.
func executeBudget(ctx context.Context, rttNanos int64) (time.Duration, bool) {
	dl, has := ctx.Deadline()
	if !has {
		return 0, true
	}
	budget := time.Until(dl) - time.Duration(rttNanos)/2
	if budget <= 0 {
		return 0, false
	}
	return budget, true
}
