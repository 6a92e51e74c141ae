package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// perLayer computes the traced run's per-module metrics. Times come from
// the benchmark's spans around each public call; counts are deltas of
// counters the modules already expose.
func perLayer(r *result) map[string]metric {
	mods := r.tr.modules()
	mean := func(name string) float64 {
		if m := mods[name]; m != nil {
			return m.meanUs()
		}
		return 0
	}
	planUs := ratio(float64(r.planNs), float64(r.planN)) / 1e3
	var stmtSelfUs float64
	if m := mods["stmt"]; m != nil && m.count > 0 {
		stmtSelfUs = float64(m.self) / float64(m.count) / 1e3
	}
	post, unt := r.post.stats, r.untuned.stats
	n := float64(r.post.stmts)
	pool := r.poolPost
	return map[string]metric{
		"sqlparser.parse_us":                  {mean("sqlparser.parse"), "us"},
		"template.observe_us":                 {mean("template.observe"), "us"},
		"template.templates":                  {float64(r.templates), "count"},
		"template.match_ratio":                {ratio(float64(r.matches), float64(r.matches+r.misses)), "ratio"},
		"planner.plan_us":                     {planUs, "us"},
		"engine.exec_us":                      {mean("session.exec") - planUs, "us"},
		"engine.allocs_per_stmt":              {ratio(float64(r.allocsPost), n), "count"},
		"engine.tuples_per_result":            {ratio(float64(post.TuplesProcessed), float64(post.RowsReturned+post.RowsAffected)), "count"},
		"engine.op_evals_per_stmt":            {ratio(float64(post.OperatorEvals), n), "count"},
		"engine.heap_pages_read_per_stmt":     {ratio(float64(post.IO.HeapPagesRead), n), "count"},
		"btree.pages_per_descent":             {ratio(float64(unt.IO.IndexPagesRead), float64(unt.IndexDescents)), "count"},
		"btree.index_pages_written_per_write": {ratio(float64(unt.IO.IndexPagesWritten), float64(r.untuned.writes)), "count"},
		"btree.splits":                        {float64(unt.IndexSplits), "count"},
		"bufferpool.hit_ratio":                {ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "ratio"},
		"bufferpool.evictions_per_stmt":       {ratio(float64(pool.Evictions), n), "count"},
		"stmt.self_us":                        {stmtSelfUs, "us"},
		"autoindex.diagnose_s":                {float64(r.rounds.diagnose) / 1e9, "s"},
		"autoindex.prune_s":                   {float64(r.rounds.prune) / 1e9, "s"},
		"autoindex.recommend_s":               {float64(r.rounds.recommend) / 1e9, "s"},
		"autoindex.apply_s":                   {float64(r.rounds.apply) / 1e9, "s"},
		"autoindex.indexes_created":           {float64(r.created), "count"},
		"autoindex.indexes_dropped":           {float64(r.dropped), "count"},
		"candgen.generate_ms":                 {float64(r.rounds.candgen) / 1e6, "ms"},
		"candgen.candidates":                  {float64(r.candidates), "count"},
		"mcts.iterations":                     {float64(r.mctsIterations), "count"},
		"mcts.evaluations":                    {float64(r.evaluations), "count"},
		"mcts.config_cache_hit_ratio":         {ratio(float64(r.mhits), float64(r.mhits+r.evaluations)), "ratio"},
		"costmodel.whatif_hit_ratio":          {ratio(float64(r.whatifHits), float64(r.whatifHits+r.whatifM)), "ratio"},
		"costmodel.whatif_misses":             {float64(r.whatifM), "count"},
	}
}

// reportTrace prints self time per module, writes the span dump, and
// reports tracing overhead against the untraced run of the same seed when
// one was made.
func reportTrace(w io.Writer, dir, key string, r *result, traced map[string]metric) error {
	fmt.Fprintln(w, "-- self time by span (benchmark-recorded, from outside the program) --")
	writeSelfTable(w, r.tr.modules())

	path := filepath.Join(dir, "spans-"+key+".tsv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tr.writeSpans(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(r.tr.spans), path)

	data, err := os.ReadFile(untracedPath(dir, key))
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "tracing overhead: no untraced run of this seed yet (run with -trace 0 first)\n")
		return nil
	}
	if err != nil {
		return err
	}
	var untraced map[string]metric
	if err := json.Unmarshal(data, &untraced); err != nil {
		return err
	}
	fmt.Fprintln(w, "-- tracing overhead: traced vs untraced run of this seed --")
	names := make([]string, 0, len(traced))
	for k := range traced {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		u, ok := untraced[k]
		if !ok || u.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "%-24s untraced %14.6g  traced %14.6g  %+7.1f%%\n",
			k, u.Value, traced[k].Value, 100*(traced[k].Value-u.Value)/u.Value)
	}
	return nil
}
