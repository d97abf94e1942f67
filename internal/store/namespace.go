package store

import (
	"fmt"
	"strings"
)

// Database namespaces: a multi-tenant server hosts several databases on one
// Service by prefixing every object name with "<db>/". Engine-generated
// object names never contain '/' (they join components with ':'), so the
// first '/' unambiguously splits namespace from object. The empty namespace
// "" — names with no '/' at all — is the root namespace that single-tenant
// clients have always used; everything here is backward compatible with it.
//
// Leakage: the namespace prefix is part of the session identity the tenant
// already announced in its handshake, so prefixed names reveal nothing
// beyond which tenant is acting — the adversary's view of the whole server
// is the union of the per-tenant traces it would have seen from N
// single-tenant servers, plus the (public) interleaving. See DESIGN.md §12.

// NamespaceOf returns the database namespace an object name belongs to: the
// prefix before the first '/', or "" (the root namespace) when the name has
// none.
func NamespaceOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return ""
}

// ValidDBName reports whether db is usable as a database namespace: non-empty,
// at most 128 bytes, and drawn from [A-Za-z0-9._-] so it can never contain
// the '/' separator or frame-confusing bytes.
func ValidDBName(db string) bool {
	if db == "" || len(db) > 128 {
		return false
	}
	for i := 0; i < len(db); i++ {
		c := db[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// NamespaceService is the optional per-namespace surface a multi-tenant
// backend exposes alongside Service. Checkpoint/Stats on Service itself act
// on the root namespace; these act on a named one. Every Func implements
// it by passing the namespace along in Call.DB, so per-tenant marks survive
// any decorator stack.
type NamespaceService interface {
	// CheckpointNS marks a recovery epoch for one database namespace.
	CheckpointNS(db string, epoch int64) error
	// StatsNS reports accounting restricted to one database namespace.
	StatsNS(db string) (Stats, error)
}

// CheckpointIn marks an epoch in the given namespace on any Service: through
// NamespaceService when the backend (or its decorators) support it, falling
// back to the plain Checkpoint for the root namespace. A non-root namespace
// on a backend without NamespaceService is an error rather than a silent
// cross-tenant checkpoint.
func CheckpointIn(svc Service, db string, epoch int64) error {
	return Apply(svc, &Call{Op: OpCheckpoint, DB: db, Value: epoch})
}

// StatsIn reports namespace-scoped stats on any Service, with the same
// fallback rules as CheckpointIn.
func StatsIn(svc Service, db string) (Stats, error) {
	c := &Call{Op: OpStats, DB: db}
	if err := Apply(svc, c); err != nil {
		return Stats{}, err
	}
	return c.Stats, nil
}

// Namespaced scopes svc to one database: every object name is prefixed with
// "<db>/", reveals are tagged per-tenant, and Checkpoint/Stats act on the
// tenant's own recovery mark. It is what the transport server interposes
// once a session handshake has bound a connection to a database, so N
// tenants share one backend without key collisions. An empty db returns svc
// unchanged (the root namespace needs no prefixing).
//
// The reveal tag is prefixed too: the reveal log is part of the adversary's
// trace, and per-tenant tags keep the union-of-traces leakage argument
// syntactic — each logged disclosure names the tenant that made it. A batch
// is prefixed op by op and still reaches a Batcher backend in one call.
func Namespaced(svc Service, db string) Service {
	if db == "" {
		return svc
	}
	prefix := db + "/"
	return Func(func(c *Call) error {
		switch c.Op {
		case OpCheckpoint, OpStats:
			if c.DB != "" {
				return fmt.Errorf("store: service scoped to namespace %q cannot address namespace %q", db, c.DB)
			}
			c.DB = db
			err := Apply(svc, c)
			c.DB = ""
			return err
		case OpBatch:
			ops := c.Ops
			scoped := make([]BatchOp, len(ops))
			for i, op := range ops {
				op.Name = prefix + op.Name
				scoped[i] = op
			}
			c.Ops = scoped
			err := Apply(svc, c)
			c.Ops = ops
			return err
		default:
			name := c.Name
			c.Name = prefix + name
			err := Apply(svc, c)
			c.Name = name
			return err
		}
	})
}
