package query

// PlanWith validates the query and plans it against the store's
// statistics, exactly as Eval would. The store must index the instance
// the query will run over: statistics drive both the atom order and
// the tier choices.
func (q *Query) PlanWith(store *IndexStore) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Plan{p: q.plan(store)}, nil
}
