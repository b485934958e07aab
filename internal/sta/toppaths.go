package sta

import "context"

// AnalyzeTopPaths times the design and extracts the worst path of each of
// the k slowest endpoints (one path per endpoint, ranked by mean arrival) —
// the `report_timing -max_paths k` view. The first returned path is the
// critical path of Analyze.
func (t *Timer) AnalyzeTopPaths(k int) (*Result, []*Path, error) {
	return t.AnalyzeTopPathsContext(context.Background(), k)
}

// AnalyzeTopPathsContext is AnalyzeTopPaths under a cancelable context.
func (t *Timer) AnalyzeTopPathsContext(ctx context.Context, k int) (*Result, []*Path, error) {
	g, states, results, err := t.analyzeCornersFlat(ctx, AnalyzeOptions{})
	if err != nil {
		return nil, nil, err
	}
	paths, err := g.TopPathsFlat(states[0], Corner{}, results[0], k)
	if err != nil {
		return nil, nil, err
	}
	return results[0], paths, nil
}
