package exec

import (
	"context"
	"sort"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// SortKey describes one component of a sort order.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort materializes its input and emits it ordered by the given keys. It is
// the "glue a sort operator" enforcer of the paper: it turns any plan into
// one with a required (interesting) order at the price of being blocking.
type Sort struct {
	In   Operator
	Keys []SortKey
	// Budget, when set, is charged for every buffered input tuple — the full
	// input, since Sort materializes everything.
	Budget *Budget

	buf  []relation.Tuple
	pos  int
	acct accountant
	// Spilled tracks how many tuples were (conceptually) written to runs;
	// the in-memory implementation records the value for instrumentation
	// parity with the cost model but never actually spills.
	Spilled int
}

// NewSort constructs a sort enforcer.
func NewSort(in Operator, keys ...SortKey) *Sort { return &Sort{In: in, Keys: keys} }

// NewSortByScore sorts descending on a score expression — the common
// enforcer for ranking queries.
func NewSortByScore(in Operator, score expr.Expr) *Sort {
	return NewSort(in, SortKey{E: score, Desc: true})
}

// Schema implements Operator.
func (s *Sort) Schema() *relation.Schema { return s.In.Schema() }

// OpenCtx implements Operator: the blocking drain polls the context on
// the sampling cadence and charges the budget per buffered tuple.
func (s *Sort) OpenCtx(ctx context.Context) error {
	if err := s.In.OpenCtx(ctx); err != nil {
		return err
	}
	if err := s.load(ctx); err != nil {
		closeQuietly(s.In)
		return err
	}
	return nil
}

// load binds the sort keys and drains the opened input into the buffer.
func (s *Sort) load(ctx context.Context) error {
	s.acct.releaseAll()
	s.acct.budget = s.Budget
	evals := make([]expr.Eval, len(s.Keys))
	for i, k := range s.Keys {
		ev, err := k.E.Bind(s.In.Schema())
		if err != nil {
			return err
		}
		evals[i] = ev
	}
	s.buf = s.buf[:0]
	s.pos = 0
	var c canceller
	c.reset(ctx)
	type keyed struct {
		t    relation.Tuple
		keys []relation.Value
	}
	var rows []keyed
	for {
		if err := c.poll(); err != nil {
			return err
		}
		t, ok, err := s.In.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := s.acct.charge(1); err != nil {
			return err
		}
		ks := make([]relation.Value, len(evals))
		for i, ev := range evals {
			v, err := ev(t)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		rows = append(rows, keyed{t: t, keys: ks})
	}
	s.Spilled = len(rows)
	sort.SliceStable(rows, func(i, j int) bool {
		for c := range s.Keys {
			cmp := rows[i].keys[c].Compare(rows[j].keys[c])
			if s.Keys[c].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	s.buf = make([]relation.Tuple, len(rows))
	for i, r := range rows {
		s.buf[i] = r.t
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (relation.Tuple, bool, error) {
	if s.pos >= len(s.buf) {
		return nil, false, nil
	}
	t := s.buf[s.pos]
	s.pos++
	return t, true, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.buf = nil
	s.acct.releaseAll()
	return s.In.Close()
}
