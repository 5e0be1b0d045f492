package server

import (
	"fmt"
	"strings"

	"repro/freq/tenant"
)

// TenantClient scopes a Client to one tenant: it carries every
// per-command method of Client (Update, UpdateBatch, Query, TopK, FI,
// HH, Stats, Snapshot and their WIN- and RANGE-scoped forms, Rotate,
// Reset), each sending the same command with a "TENANT <id>" prefix
// over the parent's connection, framing, and fault-tolerance policy,
// plus Evict. Handles are cheap — Tenant performs no network round
// trip — and a collector multiplexing many tenants holds one handle per
// tenant over a single connection. Like the parent Client, a handle is
// not safe for concurrent use, and handles of one Client must not be
// used concurrently with each other or with the parent (they interleave
// on the same reply stream).
type TenantClient[T ~int64 | ~uint64] struct {
	handle[T]
}

// Tenant returns a handle scoped to tenant id. The id is validated
// locally (1..128 printable non-space ASCII bytes — the same rule the
// server's manager enforces); no network traffic happens and no tenant
// is created server-side until the first command touches it.
func (c *Client[T]) Tenant(id string) (*TenantClient[T], error) {
	if !tenant.ValidID(id) {
		return nil, fmt.Errorf("client: %w: %q", tenant.ErrBadID, id)
	}
	pre := "TENANT " + strings.ReplaceAll(id, "%", "%%") + " "
	return &TenantClient[T]{handle[T]{cl: c, id: id, pre: pre}}, nil
}

// ID returns the tenant id this handle is scoped to.
func (t *TenantClient[T]) ID() string { return t.id }

// Evict asks the server to evict this tenant now: its live summary is
// persisted to the tenant store (when one is configured) and its slot
// returns to the warm pool. The handle stays valid — the next command
// recreates the tenant fresh. A failed persist is an error and leaves
// the tenant live. Not auto-retried.
func (t *TenantClient[T]) Evict() error {
	return t.run("EVICT", false, expectOK, "EVICT")
}
