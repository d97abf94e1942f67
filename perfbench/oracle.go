package main

import (
	"fmt"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
)

// The correctness oracle is the plaintext baseline package, which shares no
// code with the secure engines.

// expectedFDs is baseline.MinimalFDs restricted to determinants of at most
// maxLHS attributes: exactly what a MaxLHS-bounded discovery must return,
// since minimality only looks at smaller determinants.
func expectedFDs(rel *relation.Relation, maxLHS int) []relation.FD {
	var out []relation.FD
	for _, fd := range baseline.MinimalFDs(rel) {
		if fd.LHS.Size() <= maxLHS {
			out = append(out, fd)
		}
	}
	return out
}

// diffFDs describes how got differs from want, or returns "" when they
// hold the same dependencies.
func diffFDs(got, want []relation.FD) string {
	g := map[relation.FD]bool{}
	for _, fd := range got {
		g[fd] = true
	}
	missing, extra := 0, 0
	for _, fd := range want {
		if !g[fd] {
			missing++
		}
		delete(g, fd)
	}
	extra = len(g)
	if missing == 0 && extra == 0 && len(got) == len(want) {
		return ""
	}
	return fmt.Sprintf("%d FDs missing, %d unexpected (got %d, want %d)", missing, extra, len(got), len(want))
}

// mirror is the benchmark's plaintext copy of a dynamic database: live
// rows by record id, updated alongside every Insert/Delete/Update.
type mirror struct {
	schema *relation.Schema
	rows   map[int]relation.Row
	ids    []int // live ids, in a deterministic order for seeded picks
}

func newMirror(rel *relation.Relation) *mirror {
	m := &mirror{schema: rel.Schema(), rows: map[int]relation.Row{}}
	for i := 0; i < rel.NumRows(); i++ {
		m.add(i, rel.Row(i))
	}
	return m
}

func (m *mirror) add(id int, row relation.Row) {
	m.rows[id] = row
	m.ids = append(m.ids, id)
}

func (m *mirror) remove(pos int) {
	delete(m.rows, m.ids[pos])
	m.ids[pos] = m.ids[len(m.ids)-1]
	m.ids = m.ids[:len(m.ids)-1]
}

func (m *mirror) relation() (*relation.Relation, error) {
	rel := relation.New(m.schema)
	for _, id := range m.ids {
		if err := rel.Append(m.rows[id]); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// checkRevalidation counts the verdicts that disagree with baseline.Holds
// on the mutated plaintext. Every FD passed in must come back in exactly
// one of the two lists.
func checkRevalidation(rel *relation.Relation, fds, valid, invalid []relation.FD) (wrong int, detail string) {
	if len(valid)+len(invalid) != len(fds) {
		return len(fds), fmt.Sprintf("revalidation returned %d verdicts for %d FDs", len(valid)+len(invalid), len(fds))
	}
	for _, fd := range valid {
		if !baseline.Holds(rel, fd) {
			wrong++
			detail = fmt.Sprintf("%v reported valid but does not hold", fd)
		}
	}
	for _, fd := range invalid {
		if baseline.Holds(rel, fd) {
			wrong++
			detail = fmt.Sprintf("%v reported invalidated but holds", fd)
		}
	}
	return wrong, detail
}
