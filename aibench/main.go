// Command aibench is the end-to-end AutoIndex benchmark: one client drives
// the system in a closed loop through its public entry points (the session
// layer with the index manager attached, and the manager's tuning calls),
// on one of three workloads, and prints end-to-end metrics — or, with
// -trace 1, per-module metrics from spans the benchmark records around each
// call. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// refSeconds is the --seconds value at which the phases have their
// reference sizes (scale 1). Phase sizes are statement counts proportional
// to --seconds, not timers, so the deterministic ledger (cost, index bytes,
// checksum, engine counters) is the same for every run of a seed.
const refSeconds = 20

// replicas is how many times each run builds its database and runs the
// observation window and first tuning round on it (see run).
const replicas = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: oltp, analytic or banking")
	seed := fs.Int64("seed", 1, "workload seed: data and statement streams")
	seconds := fs.Int("seconds", refSeconds, "run length; phases are sized in proportion")
	traceFlag := fs.Int("trace", 0, "1: traced run, print per-layer metrics instead of end-to-end ones")
	stateDir := fs.String("state-dir", filepath.Join(".bench_build", "state"),
		"directory for the determinism ledger of earlier runs and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "aibench: need -workload oltp|analytic|banking, -seconds >= 1, -trace 0|1 (%v)\n", err)
		return 2
	}
	cfg := config{workload: def, seed: *seed, scale: float64(*seconds) / refSeconds,
		replicas: replicas, trace: *traceFlag == 1}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "aibench: %v\n", err)
		return 1
	}

	e2e := endToEnd(r)
	det := deterministic(r)
	key := fmt.Sprintf("%s-seed%d-s%d", def.name, *seed, *seconds)
	mismatches, err := checkLedger(*stateDir, key, det)
	if err != nil {
		fmt.Fprintf(stderr, "aibench: determinism ledger: %v\n", err)
		return 1
	}
	problems := append(r.problems, mismatches...)
	if r.attempted == 0 {
		problems = append(problems, "no statement was attempted")
	}

	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%d checksum=%016x\n",
		def.name, *seed, *seconds, *traceFlag, r.post.checksum)
	if r.firstErr != "" {
		fmt.Fprintf(stdout, "first failed statement: %s\n", r.firstErr)
	}
	out := output{Correct: len(problems) == 0, Attempted: r.attempted, Failed: r.failed}
	if cfg.trace {
		out.Metrics = perLayer(r)
		if err := reportTrace(stdout, *stateDir, key, r, e2e); err != nil {
			fmt.Fprintf(stderr, "aibench: %v\n", err)
			return 1
		}
		printMetrics(stdout, "per-layer", out.Metrics, nil)
	} else {
		out.Metrics = e2e
		printMetrics(stdout, "end-to-end", out.Metrics, samples(r))
		if err := saveUntraced(*stateDir, key, e2e); err != nil {
			fmt.Fprintf(stderr, "aibench: %v\n", err)
			return 1
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "aibench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(r *result) map[string]metric {
	return map[string]metric{
		"setup_s":             {medianInt64(r.setupNs) / 1e9, "s"},
		"untuned_stmts_per_s": {perSecond(r.untunedStmts, r.untunedNs), "1/s"},
		"stmts_per_s":         {perSecond(r.post.stmts, r.postBusyNs), "1/s"},
		"stmt_p99_us":         {r.p99Us, "us"},
		"tmpl_p50_geo_us":     {r.tmplGeoUs, "us"},
		"tune_s":              {float64(r.tuneNs) / 1e9, "s"},
		"cost_per_stmt":       {ratio(r.post.cost, float64(r.post.stmts)), "cost"},
		"index_bytes":         {float64(r.indexBytes), "bytes"},
		"heap_live_mb":        {r.heapLiveMB, "MB"},
	}
}

// samples gives the sample count behind each end-to-end metric.
func samples(r *result) map[string]string {
	n := len(r.setupNs)
	post := r.post.stmts
	pct, ok := highestSupported(int(post), 10)
	p99 := fmt.Sprintf("n=%d, highest percentile with >=10 beyond: p%g", post, pct)
	if !ok {
		p99 = fmt.Sprintf("n=%d, too few samples for any percentile", post)
	}
	return map[string]string{
		"setup_s":             fmt.Sprintf("median of %d setups", n),
		"untuned_stmts_per_s": fmt.Sprintf("n=%d over %d replicas", r.untunedStmts, n),
		"tune_s":              fmt.Sprintf("first round: median of %d replicas", n),
		"stmts_per_s":         fmt.Sprintf("n=%d", post),
		"stmt_p99_us":         p99,
		"tmpl_p50_geo_us":     fmt.Sprintf("%d templates over n=%d", r.nTemplates, post),
		"cost_per_stmt":       fmt.Sprintf("n=%d", post),
	}
}

func perSecond(n, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(n) / (float64(ns) / 1e9)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(w io.Writer, title string, ms map[string]metric, n map[string]string) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "-- %s --\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "%-40s %18.6g %-6s %s\n", k, ms[k].Value, ms[k].Unit, n[k])
	}
}

// deterministic lists every figure that must repeat exactly across runs of
// one seed, formatted losslessly. Traced-only counters carry a "traced:"
// prefix and are compared among traced runs only.
func deterministic(r *result) map[string]string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	post, unt := r.post.stats, r.untuned.stats
	d := map[string]string{
		"checksum":                  fmt.Sprintf("%016x", r.post.checksum),
		"untuned_checksum":          fmt.Sprintf("%016x", r.untuned.checksum),
		"attempted":                 i(r.attempted),
		"failed":                    i(r.failed),
		"cost_per_stmt":             f(ratio(r.post.cost, float64(r.post.stmts))),
		"untuned_cost":              f(r.untuned.cost),
		"index_bytes":               i(r.indexBytes),
		"engine.tuples":             i(post.TuplesProcessed),
		"engine.op_evals":           i(post.OperatorEvals),
		"engine.heap_pages_read":    i(post.IO.HeapPagesRead),
		"engine.rows":               i(post.RowsReturned + post.RowsAffected),
		"btree.index_pages_read":    i(unt.IO.IndexPagesRead),
		"btree.descents":            i(unt.IndexDescents),
		"btree.index_pages_written": i(unt.IO.IndexPagesWritten),
		"btree.splits":              i(unt.IndexSplits),
		"bufferpool.hits":           i(r.poolPost.Hits),
		"bufferpool.misses":         i(r.poolPost.Misses),
		"bufferpool.evictions":      i(r.poolPost.Evictions),
		"template.templates":        i(int64(r.templates)),
		"template.matches":          i(r.matches),
		"autoindex.indexes_created": i(int64(r.created)),
		"autoindex.indexes_dropped": i(int64(r.dropped)),
		"mcts.evaluations":          i(int64(r.evaluations)),
		"mcts.config_cache_hits":    i(int64(r.mhits)),
		"costmodel.whatif_hits":     i(r.whatifHits),
		"costmodel.whatif_misses":   i(r.whatifM),
		"post_stmts":                i(r.post.stmts),
		"untuned_stmts":             i(r.untuned.stmts),
	}
	if r.tr != nil {
		d["traced:mcts.iterations"] = i(r.mctsIterations)
		d["traced:candgen.candidates"] = i(int64(r.candidates))
	}
	return d
}

// ledgerPath names the determinism ledger of one (workload, seed, length)
// for this build of the benchmark: a rebuilt binary starts a fresh ledger.
func ledgerPath(dir, key string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	build := hex.EncodeToString(h.Sum(nil))[:16]
	return filepath.Join(dir, "ledger-"+build+"-"+key+".json"), nil
}

// checkLedger compares this run's deterministic figures with the first run
// of the same seed (recording them when this is the first) and returns one
// message per mismatch.
func checkLedger(dir, key string, det map[string]string) ([]string, error) {
	path, err := ledgerPath(dir, key)
	if err != nil {
		return nil, err
	}
	prev := map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return nil, err
	}
	var bad []string
	names := make([]string, 0, len(det))
	for k := range det {
		names = append(names, k)
	}
	sort.Strings(names)
	changed := false
	for _, k := range names {
		old, ok := prev[k]
		if !ok {
			prev[k] = det[k]
			changed = true
			continue
		}
		if old != det[k] {
			bad = append(bad, fmt.Sprintf("determinism bug: %s was %s in an earlier run of this seed, now %s", k, old, det[k]))
		}
	}
	if changed {
		if err := writeJSON(path, prev); err != nil {
			return nil, err
		}
	}
	return bad, nil
}

// writeJSON writes v to path atomically.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func untracedPath(dir, key string) string {
	return filepath.Join(dir, "untraced-"+key+".json")
}

// saveUntraced keeps the untraced end-to-end figures so a later traced run
// of the same seed can report tracing overhead.
func saveUntraced(dir, key string, e2e map[string]metric) error {
	return writeJSON(untracedPath(dir, key), e2e)
}
