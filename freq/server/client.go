package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/freq"
)

// Client speaks the line protocol to a Server. It is generic over the
// item type: the wire carries decimal int64, and any 8-byte integer kind
// (~int64 | ~uint64 — the freq fast path's domain) converts to and from
// it losslessly, so a collector keyed by uint64 flow hashes and one
// keyed by signed ids share one client. It is a thin synchronous
// wrapper suitable for collectors and tests; it is not safe for
// concurrent use (open one per goroutine — the server side is
// concurrent).
//
// Client implements freq.Queryable[T], so the freq.Query builder runs
// against a remote summary exactly as against a local sketch. The
// interface-shaped methods (Estimate, bounds, MaximumError,
// StreamWeight, All) cannot return transport errors in-band; the first
// failure is recorded and exposed via Err, and subsequent calls return
// zero values. Callers that need per-call errors use the explicit
// methods (Query, TopK, FrequentItemsAboveThreshold, Stats, ...).
//
// # Fault tolerance
//
// A dialed client survives a flaky network when configured to:
// WithDialTimeout and WithIOTimeout bound every connect, read, and
// write with deadlines; WithRetry makes the idempotent read commands
// (EST, TOPK, FI, HH, STATS, SNAP, and their WIN/RANGE-scoped forms)
// retry transport failures with jittered exponential backoff,
// transparently re-dialing and re-negotiating the binary framing. The
// non-idempotent ingest commands (Update, UpdateBatch) are NEVER
// auto-retried — a lost acknowledgement is indistinguishable from a
// lost request, so re-sending could double count; they return a
// *TransportError and let the caller decide. After any transport
// failure the connection is marked broken and the next operation
// re-dials first (when the client knows its address), so a recovered
// server is picked back up without new client state.
type Client[T ~int64 | ~uint64] struct {
	// handle carries the per-command methods, scoped to the global
	// summary and pointing back at this client.
	handle[T]

	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	err  error
	// bin is set by a successful Negotiate: requests travel as opCmd and
	// opPairs frames and replies arrive as opReply frames whose payload
	// is byte-for-byte the text protocol's reply. binVer is the
	// negotiated version (2 adds the tenant-id prefix to pairs frames).
	bin    bool
	binVer int
	// wantBin records that the caller asked for binary framing, so a
	// reconnect re-negotiates it.
	wantBin bool
	// frame is the unconsumed tail of the current reply frame's payload;
	// readLine and readBlob drain it before fetching the next frame.
	frame []byte
	// cmdBuf is the reusable request encoding buffer (command lines and
	// pairs payloads alike).
	cmdBuf []byte

	// addr is the dial target ("" for NewClient over an existing conn —
	// such a client cannot reconnect).
	addr string
	// redial opens a replacement connection; defaults to a TCP dial of
	// addr bounded by dialTimeout. Overridable for tests (fault
	// injection wraps the raw conn here).
	redial func() (net.Conn, error)
	// dialTimeout bounds the initial and every replacement dial.
	dialTimeout time.Duration
	// ioTimeout, when positive, arms a read or write deadline around
	// every conn operation, so no round trip can block forever on a
	// stalled peer.
	ioTimeout time.Duration
	// retries and backoff configure WithRetry: up to retries additional
	// attempts after the first failure, sleeping a jittered exponential
	// backoff between them.
	retries int
	backoff time.Duration
	// broken marks the connection poisoned by a transport failure (the
	// reply stream may be desynchronized); the next operation must
	// reconnect before using it.
	broken bool
	// aborted is set by an external deadline owner (Cluster's per-node
	// timeout): while set, deadline arming is suppressed so the abort
	// deadline cannot be extended by the operation in flight.
	aborted atomic.Bool
	// retryCount counts retry round trips performed (diagnostics; the
	// fault-injection suite asserts on it).
	retryCount int64
	// lastSnapBytes is the wire size of the most recent snapshot blob
	// (diagnostics; the Cluster manifest reports it).
	lastSnapBytes int
}

// ClientOption configures Dial.
type ClientOption func(*clientConfig)

type clientConfig struct {
	binary      bool
	dialTimeout time.Duration
	ioTimeout   time.Duration
	retries     int
	backoff     time.Duration
	dialer      func() (net.Conn, error)
}

// WithBinary makes Dial negotiate the binary framing after connecting.
// Negotiation is best-effort: a server that answers HELLO with ERR (an
// older build, or a newer framing version) leaves the client in text
// mode and Dial still succeeds — Binary reports which framing won.
func WithBinary() ClientOption {
	return func(c *clientConfig) { c.binary = true }
}

// WithDialTimeout bounds the initial connect and every reconnect; zero
// (the default) dials without a bound.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.dialTimeout = d }
}

// WithIOTimeout arms a deadline around every read and write on the
// connection — text and binary framing alike — so a stalled peer fails
// the operation with a timeout instead of pinning the caller forever.
// Zero (the default) leaves operations unbounded.
func WithIOTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.ioTimeout = d }
}

// WithRetry makes idempotent read commands retry transport failures up
// to n additional times, sleeping a jittered exponential backoff
// starting at base between attempts (base doubles per attempt, capped
// at 64x, jittered ±50%). Each retry re-dials the server and
// re-negotiates the framing. Non-idempotent ingest never retries
// regardless of this option.
func WithRetry(n int, base time.Duration) ClientOption {
	return func(c *clientConfig) { c.retries, c.backoff = n, base }
}

// WithDialer replaces the TCP dialer used for the initial connection
// and every reconnect — the hook the fault-injection suite uses to wrap
// connections in chaos. The addr argument of Dial is then only a label.
func WithDialer(dial func() (net.Conn, error)) ClientOption {
	return func(c *clientConfig) { c.dialer = dial }
}

// Queryable compile-time proof, mirroring the assertions in freq.
var _ freq.Queryable[int64] = (*Client[int64])(nil)

// Dial connects to a server at addr.
func Dial[T ~int64 | ~uint64](addr string, opts ...ClientOption) (*Client[T], error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	dial := cfg.dialer
	if dial == nil {
		dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, cfg.dialTimeout)
		}
	}
	conn, err := dial()
	if err != nil {
		return nil, &TransportError{Op: "DIAL", Attempts: 1, Err: err}
	}
	c := NewClient[T](conn)
	c.addr = addr
	c.redial = dial
	c.dialTimeout = cfg.dialTimeout
	c.ioTimeout = cfg.ioTimeout
	c.retries = cfg.retries
	c.backoff = cfg.backoff
	if cfg.binary {
		c.wantBin = true
		if _, err := c.Negotiate(); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// NewClient wraps an existing connection (e.g. net.Pipe in tests). The
// client starts in text framing; call Negotiate to attempt the binary
// upgrade.
func NewClient[T ~int64 | ~uint64](conn net.Conn) *Client[T] {
	c := &Client[T]{
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
	}
	c.handle = handle[T]{cl: c}
	return c
}

// armRead arms the read deadline for one conn operation when an IO
// timeout is configured. Suppressed while an external abort deadline is
// in force (see abort).
func (c *Client[T]) armRead() {
	if c.ioTimeout > 0 && !c.aborted.Load() {
		c.conn.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
}

// armWrite arms the write deadline for one conn operation.
func (c *Client[T]) armWrite() {
	if c.ioTimeout > 0 && !c.aborted.Load() {
		c.conn.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
}

// abort expires the connection immediately and keeps it expired: every
// blocked or future conn operation fails with a timeout until
// clearAbort. Safe to call from another goroutine (the Cluster's
// per-node refresh timeout is an AfterFunc); conn deadlines are
// documented as concurrency-safe.
func (c *Client[T]) abort() {
	c.aborted.Store(true)
	c.conn.SetDeadline(time.Now())
}

// clearAbort lifts an abort. The connection stays marked broken by the
// failed operation itself, so the next use reconnects rather than
// trusting a desynchronized stream.
func (c *Client[T]) clearAbort() {
	if c.aborted.Swap(false) {
		c.conn.SetDeadline(time.Time{})
	}
}

// Retries returns how many retry round trips this client has performed
// (diagnostics; reconnects that precede a first attempt don't count).
func (c *Client[T]) Retries() int64 { return c.retryCount }

// Addr returns the dial target, or the remote address for a client
// wrapped around an existing connection.
func (c *Client[T]) Addr() string {
	if c.addr != "" {
		return c.addr
	}
	if ra := c.conn.RemoteAddr(); ra != nil {
		return ra.String()
	}
	return ""
}

// reconnect replaces a broken connection with a freshly dialed one and
// re-negotiates the framing the caller originally asked for. It returns
// a *TransportError when the client has no redial target (NewClient
// over a raw conn) or the dial fails.
func (c *Client[T]) reconnect() error {
	if c.redial == nil {
		return &TransportError{Op: "DIAL", Attempts: 1,
			Err: errors.New("connection broken and no redial target (wrap with Dial to enable reconnects)")}
	}
	conn, err := c.redial()
	if err != nil {
		return &TransportError{Op: "DIAL", Attempts: 1, Err: err}
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	c.r.Reset(conn)
	c.w.Reset(conn)
	c.bin = false
	c.frame = nil
	c.broken = false
	c.aborted.Store(false)
	if c.wantBin {
		if _, err := c.Negotiate(); err != nil {
			c.broken = true
			return err
		}
	}
	return nil
}

// do runs one whole operation (request plus full reply) with the
// client's fault-tolerance policy: reconnect first if the connection is
// known broken, classify failures, and — for idempotent operations with
// retry configured — re-dial and re-run with jittered exponential
// backoff. Protocol errors (the server answered ERR, or answered
// something unparseable on an intact stream) are returned as-is and
// never retried; transport failures poison the connection and surface
// as *TransportError.
func (c *Client[T]) do(op string, idempotent bool, fn func() error) error {
	attempts := 0
	for {
		attempts++
		var err error
		if c.broken {
			err = c.reconnect()
		}
		if err == nil {
			err = fn()
			if err == nil {
				return nil
			}
			if !isTransport(err) {
				return err // protocol-level: the stream is intact
			}
			// The reply stream can no longer be trusted; any buffered
			// bytes may belong to the failed exchange.
			c.broken = true
		}
		te := transportErr(err)
		if !idempotent || attempts > c.retries || c.redial == nil {
			te.Op, te.Attempts = op, attempts
			return te
		}
		c.retryCount++
		if d := jitteredBackoff(c.backoff, attempts); d > 0 {
			time.Sleep(d)
		}
	}
}

// Negotiate sends HELLO BIN and upgrades the connection to the binary
// framing if the server agrees. It offers the newest framing version
// first and descends on each ERR decline — a current server answers
// BIN 2 immediately, a BIN-1-only build declines once and accepts BIN 1,
// and an older server that has never heard of HELLO declines every
// version, leaving the client in text mode: each HELLO is a single line
// and each ERR a single line, so the stream stays synchronized
// throughout. It returns (true, nil) on upgrade and (false, nil) when
// every version was declined. Only transport failures return an error.
// Negotiate is a no-op on an already-binary connection.
func (c *Client[T]) Negotiate() (bool, error) {
	if c.bin {
		return true, nil
	}
	for ver := binaryVersionMax; ver >= binaryVersionMin; ver-- {
		line, err := c.roundTrip("HELLO BIN %d", ver)
		if isTransport(err) {
			return false, err
		}
		if err != nil {
			continue // declined with ERR: offer the next version
		}
		if line != fmt.Sprintf("HELLO BIN %d", ver) {
			return false, fmt.Errorf("server: unexpected HELLO response %q", line)
		}
		c.bin = true
		c.binVer = ver
		return true, nil
	}
	return false, nil
}

// Binary reports whether the connection negotiated the binary framing.
func (c *Client[T]) Binary() bool { return c.bin }

// BinaryVersion returns the negotiated binary framing version, 0 while
// in text framing.
func (c *Client[T]) BinaryVersion() int {
	if !c.bin {
		return 0
	}
	return c.binVer
}

// writeFrame ships one framed request and flushes it.
func (c *Client[T]) writeFrame(op byte, payload []byte) error {
	c.armWrite()
	var hdr [frameHeader]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return transportErr(err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return transportErr(err)
	}
	return transportErrOrNil(c.w.Flush())
}

// transportErrOrNil wraps err as a transport error, passing nil through
// (a non-nil *TransportError inside a nil-checked error interface would
// not compare equal to nil).
func transportErrOrNil(err error) error {
	if err == nil {
		return nil
	}
	return transportErr(err)
}

// readFrame fetches the next reply frame's payload into c.frame.
func (c *Client[T]) readFrame() error {
	c.armRead()
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return transportErr(err)
	}
	if hdr[0] != opReply {
		// Framing violations desynchronize the stream: transport-class.
		return transportErr(fmt.Errorf("client: unexpected frame opcode 0x%02x", hdr[0]))
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrameBytes {
		return transportErr(fmt.Errorf("client: reply frame length %d exceeds cap %d", n, MaxFrameBytes))
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return transportErr(err)
	}
	c.frame = buf
	return nil
}

// readLine returns the next reply line including its trailing newline —
// straight off the stream in text framing, sliced out of the current
// reply frame in binary framing.
func (c *Client[T]) readLine() (string, error) {
	if !c.bin {
		c.armRead()
		line, err := c.r.ReadString('\n')
		return line, transportErrOrNil(err)
	}
	if len(c.frame) == 0 {
		if err := c.readFrame(); err != nil {
			return "", err
		}
	}
	if i := bytes.IndexByte(c.frame, '\n'); i >= 0 {
		line := string(c.frame[:i+1])
		c.frame = c.frame[i+1:]
		return line, nil
	}
	line := string(c.frame)
	c.frame = nil
	return line, nil
}

// readBlobInto fills blob with reply payload bytes — the body of a SNAP
// response, which in binary framing rides in the same frame as its
// header line.
func (c *Client[T]) readBlobInto(blob []byte) error {
	if !c.bin {
		// Arm per chunk, not per blob: a large snapshot may legitimately
		// take many read deadlines' worth of wall clock as long as bytes
		// keep flowing.
		for len(blob) > 0 {
			c.armRead()
			n, err := c.r.Read(blob)
			blob = blob[n:]
			if err != nil {
				if err == io.EOF && len(blob) == 0 {
					return nil
				}
				return transportErr(err)
			}
		}
		return nil
	}
	for len(blob) > 0 {
		if len(c.frame) == 0 {
			if err := c.readFrame(); err != nil {
				return err
			}
		}
		n := copy(blob, c.frame)
		c.frame = c.frame[n:]
		blob = blob[n:]
	}
	return nil
}

// closeGraceTimeout bounds Close's wait for the server's BYE: a dead or
// stalled peer must not hang Close forever.
const closeGraceTimeout = time.Second

// Close sends QUIT, waits for the server's BYE — which the server only
// sends after flushing this connection's buffered updates into the
// shared summary — and closes the connection. The BYE wait is bounded
// (by the IO timeout when configured, else one second): against a dead
// peer Close gives up the handshake and just closes.
func (c *Client[T]) Close() error {
	if c.conn == nil {
		return nil
	}
	if !c.broken {
		grace := c.ioTimeout
		if grace <= 0 || grace > closeGraceTimeout {
			grace = closeGraceTimeout
		}
		c.conn.SetDeadline(time.Now().Add(grace))
		if c.bin {
			if err := c.writeFrame(opCmd, []byte("QUIT")); err == nil {
				_, _ = c.readLine()
			}
		} else {
			fmt.Fprintln(c.w, "QUIT")
			if err := c.w.Flush(); err == nil {
				_, _ = c.r.ReadString('\n')
			}
		}
	}
	return c.conn.Close()
}

func (c *Client[T]) roundTrip(format string, args ...any) (string, error) {
	if c.bin {
		c.cmdBuf = fmt.Appendf(c.cmdBuf[:0], format, args...)
		if err := c.writeFrame(opCmd, c.cmdBuf); err != nil {
			return "", err
		}
	} else {
		c.armWrite()
		if _, err := fmt.Fprintf(c.w, format+"\n", args...); err != nil {
			return "", transportErr(err)
		}
		if err := c.w.Flush(); err != nil {
			return "", transportErr(err)
		}
	}
	return c.readReply()
}

// readReply reads one reply line, returning an ERR reply as an error.
func (c *Client[T]) readReply() (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return "", fmt.Errorf("server: %s", line[4:])
	}
	return line, nil
}

// readBatchAck reads a block's acknowledgement, which must be exactly
// "OK <n>".
func (c *Client[T]) readBatchAck(n int) error {
	line, err := c.readReply()
	if err != nil {
		return err
	}
	var got int
	if _, err := fmt.Sscanf(line, "OK %d", &got); err != nil || got != n {
		return fmt.Errorf("server: unexpected batch response %q", line)
	}
	return nil
}

// handle is the per-command client surface, defined once for every
// scope: a Client embeds the global handle (id "") and a TenantClient a
// tenant's, so each method sends the same command, prefixed with
// "TENANT <id>" when scoped, over the parent Client's connection.
type handle[T ~int64 | ~uint64] struct {
	cl *Client[T]
	id string
	// pre is the command prefix, "" or "TENANT <id> " with any '%' in
	// the id escaped, ready to prepend to a format string.
	pre string
}

// run sends one command in the handle's scope under the client's
// fault-tolerance policy and hands the first reply line to parse.
func (h *handle[T]) run(op string, idempotent bool, parse func(resp string) error, format string, args ...any) error {
	if h.id != "" {
		op = "TENANT " + op
	}
	return h.cl.do(op, idempotent, func() error {
		resp, err := h.cl.roundTrip(h.pre+format, args...)
		if err != nil {
			return err
		}
		return parse(resp)
	})
}

// expectOK accepts exactly the bare "OK" acknowledgement.
func expectOK(resp string) error {
	if resp != "OK" {
		return fmt.Errorf("server: unexpected response %q", resp)
	}
	return nil
}

// est runs one idempotent EST-replying command.
func (h *handle[T]) est(op, format string, args ...any) (est, lb, ub int64, err error) {
	err = h.run(op, true, func(resp string) error {
		if _, serr := fmt.Sscanf(resp, "EST %d %d %d", &est, &lb, &ub); serr != nil {
			return fmt.Errorf("server: bad response %q", resp)
		}
		return nil
	}, format, args...)
	if err != nil {
		return 0, 0, 0, err
	}
	return est, lb, ub, nil
}

// rows runs one idempotent MULTI-replying command.
func (h *handle[T]) rows(op, format string, args ...any) ([]freq.Row[T], error) {
	var rows []freq.Row[T]
	err := h.run(op, true, func(resp string) (err error) {
		rows, err = h.cl.readMulti(resp)
		return err
	}, format, args...)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// snapshot runs one idempotent SNAP-replying command and decodes the
// blob.
func (h *handle[T]) snapshot(op, format string, args ...any) (*freq.Sketch[T], error) {
	var sk *freq.Sketch[T]
	err := h.run(op, true, func(resp string) (err error) {
		sk, err = h.cl.readSnapshot(resp)
		return err
	}, format, args...)
	if err != nil {
		return nil, err
	}
	return sk, nil
}

// Update sends a weighted update. Not idempotent: a transport failure
// returns a *TransportError and is never auto-retried — the caller
// decides whether re-sending risks double counting.
func (h *handle[T]) Update(item T, weight int64) error {
	return h.run("U", false, expectOK, "U %d %d", int64(item), weight)
}

// UpdateBatch sends a batch of weighted updates in blocks — one
// buffered write and one round trip per block instead of per update —
// and waits for the server's acknowledgement: UB blocks in text
// framing, pairs frames in binary framing (tenant-scoped pairs frames
// need BIN 2; on a BIN 1 connection a tenant's block degrades to
// per-update command frames). Batches longer than the server's
// MaxWireBatch cap are chunked transparently. Each block is
// all-or-nothing on the server: mismatched lengths here or a negative
// weight there reject it with no updates from that block applied.
func (h *handle[T]) UpdateBatch(items []T, weights []int64) error {
	if len(items) != len(weights) {
		return fmt.Errorf("client: batch length mismatch: %d items, %d weights", len(items), len(weights))
	}
	for lo := 0; lo < len(items); lo += MaxWireBatch {
		hi := min(lo+MaxWireBatch, len(items))
		if err := h.updateBlock(items[lo:hi], weights[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Query returns (estimate, lowerBound, upperBound) for item in one
// round trip. Idempotent: retried under WithRetry.
func (h *handle[T]) Query(item T) (est, lb, ub int64, err error) {
	return h.est("EST", "EST %d", int64(item))
}

// TopK returns the n largest items (server-side TOPK command, answered
// from the server's epoch-cached merged view). Idempotent: retried
// under WithRetry.
func (h *handle[T]) TopK(n int) ([]freq.Row[T], error) {
	return h.rows("TOPK", "TOPK %d", n)
}

// FrequentItemsAboveThreshold returns items qualifying against an
// absolute threshold under et (server-side FI command). Idempotent:
// retried under WithRetry.
func (h *handle[T]) FrequentItemsAboveThreshold(threshold int64, et freq.ErrorType) ([]freq.Row[T], error) {
	return h.rows("FI", "FI %d %d", int(et), threshold)
}

// HeavyHitters returns items above phi (in [0,1]) of the stream weight.
// Idempotent: retried under WithRetry.
func (h *handle[T]) HeavyHitters(phi float64) ([]freq.Row[T], error) {
	return h.rows("HH", "HH %d", int(phi*1000))
}

// Stats returns the scoped summary's stream weight and error band.
// Idempotent: retried under WithRetry.
func (h *handle[T]) Stats() (n, maxErr int64, err error) {
	st, err := h.stats()
	return st.N, st.MaxErr, err
}

// Snapshot fetches the serialized summary and decodes it into a sketch —
// the §3 geographically-distributed pattern over the wire, and the unit
// the Cluster fan-out merges. The blob is the standard single-sketch
// wire format, so global and tenant snapshots merge alike. Idempotent:
// retried under WithRetry.
func (h *handle[T]) Snapshot() (*freq.Sketch[T], error) {
	return h.snapshot("SNAP", "SNAP")
}

// Window-scoped reads: each maps onto the WIN command, scoping the
// query to the merged view of the last w window intervals. They error
// when the server runs without a window.

// QueryWindow returns (estimate, lowerBound, upperBound) for item over
// the last w intervals of the sliding window. Idempotent: retried under
// WithRetry.
func (h *handle[T]) QueryWindow(w int, item T) (est, lb, ub int64, err error) {
	return h.est("WIN EST", "WIN %d EST %d", w, int64(item))
}

// TopKWindow returns the n largest items over the last w intervals.
// Idempotent: retried under WithRetry.
func (h *handle[T]) TopKWindow(w, n int) ([]freq.Row[T], error) {
	return h.rows("WIN TOPK", "WIN %d TOPK %d", w, n)
}

// FrequentItemsAboveThresholdWindow returns items qualifying against an
// absolute threshold under et over the last w intervals. Idempotent:
// retried under WithRetry.
func (h *handle[T]) FrequentItemsAboveThresholdWindow(w int, threshold int64, et freq.ErrorType) ([]freq.Row[T], error) {
	return h.rows("WIN FI", "WIN %d FI %d %d", w, int(et), threshold)
}

// SnapshotWindow fetches the serialized merged view of the last w
// intervals and decodes it into an ordinary sketch — the blob is the
// standard single-sketch wire format, so the result merges and queries
// like any other snapshot (Cluster.RefreshWindow fans this out).
// Idempotent: retried under WithRetry.
func (h *handle[T]) SnapshotWindow(w int) (*freq.Sketch[T], error) {
	return h.snapshot("WIN SNAP", "WIN %d SNAP", w)
}

// Range-scoped reads: each maps onto the RANGE command, scoping the
// query to the merged summary of every slot the server's durable store
// persisted over [from, to) — for a tenant, including history persisted
// by eviction, so an evicted-and-recreated tenant's past remains
// queryable. Bounds travel as unix seconds. They error when the server
// runs without a store.

// QueryRange returns (estimate, lowerBound, upperBound) for item over
// the stored history covering [from, to). Idempotent: retried under
// WithRetry.
func (h *handle[T]) QueryRange(from, to time.Time, item T) (est, lb, ub int64, err error) {
	return h.est("RANGE EST", "RANGE %d %d EST %d", from.Unix(), to.Unix(), int64(item))
}

// TopKRange returns the n largest items over the stored history
// covering [from, to). Idempotent: retried under WithRetry.
func (h *handle[T]) TopKRange(from, to time.Time, n int) ([]freq.Row[T], error) {
	return h.rows("RANGE TOPK", "RANGE %d %d TOPK %d", from.Unix(), to.Unix(), n)
}

// FrequentItemsAboveThresholdRange returns items qualifying against an
// absolute threshold under et over the stored history covering
// [from, to). Idempotent: retried under WithRetry.
func (h *handle[T]) FrequentItemsAboveThresholdRange(from, to time.Time, threshold int64, et freq.ErrorType) ([]freq.Row[T], error) {
	return h.rows("RANGE FI", "RANGE %d %d FI %d %d", from.Unix(), to.Unix(), int(et), threshold)
}

// SnapshotRange fetches the serialized merged summary of the stored
// history covering [from, to) — the standard single-sketch wire format,
// decoded like any other snapshot. Idempotent: retried under WithRetry.
func (h *handle[T]) SnapshotRange(from, to time.Time) (*freq.Sketch[T], error) {
	return h.snapshot("RANGE SNAP", "RANGE %d %d SNAP", from.Unix(), to.Unix())
}

// Rotate advances the sliding window one interval and returns the
// window's total rotation count. Not idempotent (each call advances
// the ring): transport failures are never auto-retried.
func (h *handle[T]) Rotate() (rotations int64, err error) {
	err = h.run("ROTATE", false, func(resp string) error {
		if _, serr := fmt.Sscanf(resp, "OK %d", &rotations); serr != nil {
			return fmt.Errorf("server: unexpected response %q", resp)
		}
		return nil
	}, "ROTATE")
	if err != nil {
		return 0, err
	}
	return rotations, nil
}

// Reset clears the live summary (stored history is untouched). Not
// auto-retried.
func (h *handle[T]) Reset() error {
	return h.run("RESET", false, expectOK, "RESET")
}

// updateBlock ships one non-empty block of at most MaxWireBatch pairs
// in the handle's scope — a UB block in text framing, one opPairs frame
// in binary framing. A tenant-scoped block on a BIN 1 connection has no
// batch encoding (v1 pairs frames carry no id, and UB's pair lines
// belong to the text framing), so it degrades to per-update TENANT U
// command frames. Not idempotent: transport failures surface as
// *TransportError, never auto-retried (each block is all-or-nothing on
// the server, but a lost acknowledgement leaves applied-or-not
// unknowable here).
func (h *handle[T]) updateBlock(items []T, weights []int64) error {
	c := h.cl
	return c.do("UB", false, func() error {
		switch {
		case c.bin && (h.id == "" || c.binVer >= 2):
			return c.updateBlockBinary(h.id, items, weights)
		case c.bin:
			// BIN 1 with a tenant scope: per-update command frames.
			for i := range items {
				resp, err := c.roundTrip(h.pre+"U %d %d", int64(items[i]), weights[i])
				if err == nil {
					err = expectOK(resp)
				}
				if err != nil {
					return err
				}
			}
			return nil
		default:
			return c.updateBlockText(h.pre, items, weights)
		}
	})
}

// updateBlockText ships one UB block over the text framing, its header
// prefixed with the scope's format-ready prefix pre.
func (c *Client[T]) updateBlockText(pre string, items []T, weights []int64) error {
	c.armWrite()
	if _, err := fmt.Fprintf(c.w, pre+"UB %d\n", len(items)); err != nil {
		return transportErr(err)
	}
	buf := make([]byte, 0, 48)
	for i := range items {
		buf = strconv.AppendInt(buf[:0], int64(items[i]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, weights[i], 10)
		buf = append(buf, '\n')
		if _, err := c.w.Write(buf); err != nil {
			return transportErr(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return transportErr(err)
	}
	return c.readBatchAck(len(items))
}

// updateBlockBinary encodes one pairs frame — pairSize bytes per
// update, little-endian item then weight, preceded on a BIN 2
// connection by the tenant-id prefix (length 0 = global) — and waits
// for the same "OK <n>" the text block gets. The encoding buffer is
// reused, so a steady stream of equal-size blocks allocates nothing.
func (c *Client[T]) updateBlockBinary(id string, items []T, weights []int64) error {
	prefix := 0
	if c.binVer >= 2 {
		prefix = 2 + len(id)
	}
	need := prefix + len(items)*pairSize
	if cap(c.cmdBuf) < need {
		c.cmdBuf = make([]byte, need)
	}
	buf := c.cmdBuf[:need]
	if c.binVer >= 2 {
		binary.LittleEndian.PutUint16(buf, uint16(len(id)))
		copy(buf[2:], id)
	}
	pairs := buf[prefix:]
	for i := range items {
		binary.LittleEndian.PutUint64(pairs[i*pairSize:], uint64(int64(items[i])))
		binary.LittleEndian.PutUint64(pairs[i*pairSize+8:], uint64(weights[i]))
	}
	if err := c.writeFrame(opPairs, buf); err != nil {
		return err
	}
	return c.readBatchAck(len(items))
}

// readMulti parses a MULTI block into rows.
func (c *Client[T]) readMulti(header string) ([]freq.Row[T], error) {
	var n int
	if _, err := fmt.Sscanf(header, "MULTI %d", &n); err != nil {
		return nil, fmt.Errorf("server: bad multi header %q", header)
	}
	rows := make([]freq.Row[T], 0, n)
	for i := 0; i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		var item int64
		var r freq.Row[T]
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "ITEM %d %d %d %d",
			&item, &r.Estimate, &r.LowerBound, &r.UpperBound); err != nil {
			return nil, fmt.Errorf("server: bad row %q", line)
		}
		r.Item = T(item)
		rows = append(rows, r)
	}
	return rows, nil
}

// Top returns the n largest items. Deprecated name kept for existing
// callers; identical to TopK.
func (c *Client[T]) Top(n int) ([]freq.Row[T], error) { return c.TopK(n) }

// readSnapshot consumes a "SNAP <bytes>" header's blob and decodes it.
func (c *Client[T]) readSnapshot(header string) (*freq.Sketch[T], error) {
	var n int
	if _, err := fmt.Sscanf(header, "SNAP %d", &n); err != nil {
		return nil, fmt.Errorf("server: bad snapshot header %q", header)
	}
	blob := make([]byte, n)
	if err := c.readBlobInto(blob); err != nil {
		return nil, err
	}
	c.lastSnapBytes = n
	sk, err := freq.New[T](64)
	if err != nil {
		return nil, err
	}
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return sk, nil
}

// Raw sends a raw protocol line and returns the first response line
// (diagnostics and protocol tests). The command's idempotence is
// unknowable here, so Raw is never auto-retried.
func (c *Client[T]) Raw(line string) (string, error) {
	var resp string
	err := c.run("RAW", false, func(r string) error {
		resp = r
		return nil
	}, "%s", line)
	if err != nil {
		return "", err
	}
	return resp, nil
}

// Err returns the first transport or protocol error encountered by the
// freq.Queryable-shaped methods, or nil. It does not reset.
func (c *Client[T]) Err() error { return c.err }

// fail records the first Queryable-path error.
func (c *Client[T]) fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Estimate returns the remote point estimate for item (one EST round
// trip); 0 and a sticky Err on transport failure.
func (c *Client[T]) Estimate(item T) int64 {
	est, _, _, err := c.Query(item)
	c.fail(err)
	return est
}

// LowerBound returns the remote lower bound for item.
func (c *Client[T]) LowerBound(item T) int64 {
	_, lb, _, err := c.Query(item)
	c.fail(err)
	return lb
}

// UpperBound returns the remote upper bound for item.
func (c *Client[T]) UpperBound(item T) int64 {
	_, _, ub, err := c.Query(item)
	c.fail(err)
	return ub
}

// MaximumError returns the remote summary's error band (via STATS).
func (c *Client[T]) MaximumError() int64 {
	_, maxErr, err := c.Stats()
	c.fail(err)
	return maxErr
}

// StreamWeight returns the remote stream weight (via STATS).
func (c *Client[T]) StreamWeight() int64 {
	n, _, err := c.Stats()
	c.fail(err)
	return n
}

// All fetches every tracked row (FI with threshold 0, no false
// negatives) and iterates the result — the remote leg of the
// freq.Queryable contract. The fetch happens when iteration starts; a
// transport failure yields nothing and sets Err.
func (c *Client[T]) All() iter.Seq2[T, freq.Row[T]] {
	return func(yield func(T, freq.Row[T]) bool) {
		rows, err := c.FrequentItemsAboveThreshold(0, freq.NoFalseNegatives)
		if err != nil {
			c.fail(err)
			return
		}
		for _, r := range rows {
			if !yield(r.Item, r) {
				return
			}
		}
	}
}

// ServerStats is the fully parsed STATS reply. Fields absent from the
// reply (an older server, or one running without a window, store, or
// tenant manager) are zero.
type ServerStats struct {
	// N is the global summary's stream weight; MaxErr its error band.
	N, MaxErr int64
	// Shards is the global summary's shard count.
	Shards int
	// WindowSlots is the sliding window's interval count (0 without a
	// window).
	WindowSlots int
	// StorePartitions is the durable store's live partition count (0
	// without a store).
	StorePartitions int
	// Tenants is the live tenant count and TenantsMax the registry
	// capacity (both 0 without a tenant manager).
	Tenants, TenantsMax int
	// TenantEvictions counts tenants evicted (idle-TTL, capacity
	// pressure, or explicit EVICT) since the server started.
	TenantEvictions int64
}

// StatsFull returns the fully parsed STATS reply — stream weight and
// error band like Stats, plus the window, store, and tenant occupancy
// fields. Unknown key=value fields are ignored, so newer servers stay
// parseable. Idempotent: retried under WithRetry.
func (c *Client[T]) StatsFull() (ServerStats, error) { return c.stats() }

// stats runs STATS in the handle's scope and parses the reply's
// key=value fields; a tenant's reply carries only the leading ones.
func (h *handle[T]) stats() (ServerStats, error) {
	var st ServerStats
	err := h.run("STATS", true, func(resp string) error {
		rest, ok := strings.CutPrefix(resp, "STATS ")
		if !ok {
			return fmt.Errorf("server: bad stats %q", resp)
		}
		for _, field := range strings.Fields(rest) {
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return fmt.Errorf("server: bad stats field %q in %q", field, resp)
			}
			n, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil {
				return fmt.Errorf("server: bad stats value %q in %q", field, resp)
			}
			switch key {
			case "n":
				st.N = n
			case "err":
				st.MaxErr = n
			case "shards":
				st.Shards = int(n)
			case "slots":
				st.WindowSlots = int(n)
			case "partitions":
				st.StorePartitions = int(n)
			case "tenants":
				st.Tenants = int(n)
			case "tenants_max":
				st.TenantsMax = int(n)
			case "tenant_evictions":
				st.TenantEvictions = n
			}
		}
		return nil
	}, "STATS")
	if err != nil {
		return ServerStats{}, err
	}
	return st, nil
}
