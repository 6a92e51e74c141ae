package main

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

func TestNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.5, 100}, {100, 100}, {0.1, 1}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := nearestRank([]int64{7, 9}, 50); got != 7 {
		t.Errorf("p50 of {7,9} = %d, want 7", got)
	}
	if got := nearestRank(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %d, want 0", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true},    // rank 990: 10 samples beyond
		{999, 95, true},     // p99 rank 990 leaves only 9
		{10000, 99.9, true}, // rank 9990: 10 beyond
		{100000, 99.99, true},
		{200, 95, true}, // p95 rank 190 leaves 10; p99 leaves 2
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := highestSupported(c.n, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geoMean(1, 100) = %g, want 10", got)
	}
	if got := geoMean([]float64{4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMean(4) = %g", got)
	}
	if got := geoMean(nil); got != 0 {
		t.Errorf("geoMean() = %g, want 0", got)
	}
	// Template medians: one slow template does not dominate the way it
	// dominates a mixed-stream median.
	lat := []int64{1000, 3000, 2000, 1e6, 3e6}
	tmpl := []int32{0, 0, 0, 1, 1}
	meds := templateMedians(lat, tmpl)
	if !reflect.DeepEqual(meds, []float64{2, 2000}) {
		t.Errorf("templateMedians = %v, want [2 2000]", meds)
	}
}

func TestPlanDependent(t *testing.T) {
	pks := map[string][]string{"orders": {"o_id"}, "withdraw_flow": {"wf_id"}}
	for _, c := range []struct {
		sql  string
		want bool
	}{
		{"SELECT o_id FROM orders WHERE o_c_id = 3", false},
		{"SELECT o_id FROM orders WHERE o_c_id = 3 ORDER BY o_id DESC LIMIT 1", false},
		{"SELECT wf_id FROM withdraw_flow WHERE acct_id = 3 ORDER BY wf_date DESC LIMIT 5", true},
		{"SELECT k, COUNT(*) FROM orders GROUP BY k ORDER BY k LIMIT 20", false},
		{"SELECT k, j, COUNT(*) FROM orders GROUP BY k, j ORDER BY k LIMIT 20", true},
		{"SELECT o.o_id FROM orders o JOIN withdraw_flow w ON o.o_id = w.wf_id ORDER BY o.o_id LIMIT 3", true},
	} {
		sel := sqlparser.MustParse(c.sql).(*sqlparser.SelectStmt)
		if got := planDependent(sel, pks); got != c.want {
			t.Errorf("planDependent(%s) = %v, want %v", c.sql, got, c.want)
		}
	}
}

// streams generates a workload's phases for seed at a small scale.
func streams(t *testing.T, w *workloadDef, seed int64) []phase {
	t.Helper()
	_, gen, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen(0.02)
}

func TestStreamsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := streams(t, w, 7), streams(t, w, 7), streams(t, w, 8)
			if streamDigest(a) != streamDigest(b) {
				t.Fatal("same seed gave different statement streams")
			}
			if streamDigest(a) == streamDigest(c) {
				t.Fatal("different seeds gave identical statement streams")
			}
		})
	}
}

// TestChecksumIndexTransparent pins the correctness check: the post-tune
// checksum is the same with tuning skipped (so the indexes tuning builds
// change no result), traced and untraced, and every deterministic figure
// repeats.
func TestChecksumIndexTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload three times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w, seed: 3, scale: 0.05, replicas: 2}
			tuned := mustRun(t, cfg)
			if tuned.created+tuned.dropped == 0 {
				t.Fatal("tuning changed no index; the check would be vacuous")
			}
			traced := cfg
			traced.trace = true
			tr := mustRun(t, traced)
			skipped := cfg
			skipped.skipTuning = true
			sk := mustRun(t, skipped)
			if tuned.post.checksum != sk.post.checksum || tuned.untuned.checksum != sk.untuned.checksum {
				t.Errorf("checksum with tuning %016x/%016x, tuning skipped %016x/%016x",
					tuned.untuned.checksum, tuned.post.checksum, sk.untuned.checksum, sk.post.checksum)
			}
			dt, dtr := deterministic(tuned), deterministic(tr)
			for k, v := range dt {
				if dtr[k] != v {
					t.Errorf("%s: untraced %s, traced %s", k, v, dtr[k])
				}
			}
			if tuned.failed != 0 {
				t.Errorf("%d of %d statements failed: %s", tuned.failed, tuned.attempted, tuned.firstErr)
			}
		})
	}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Fatalf("problems: %v", r.problems)
	}
	return r
}

func TestLedgerFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	det := map[string]string{"cost_per_stmt": "1.5", "index_bytes": "100"}
	if bad, err := checkLedger(dir, "k", det); err != nil || len(bad) != 0 {
		t.Fatalf("first run: %v %v", bad, err)
	}
	if bad, err := checkLedger(dir, "k", det); err != nil || len(bad) != 0 {
		t.Fatalf("same figures: %v %v", bad, err)
	}
	det["index_bytes"] = "101"
	det["traced:mcts.iterations"] = "7"
	bad, err := checkLedger(dir, "k", det)
	if err != nil || len(bad) != 1 || !strings.Contains(bad[0], "determinism bug: index_bytes") {
		t.Fatalf("drift: %v %v", bad, err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "ledger-*-k.json"))
	if len(matches) != 1 {
		t.Fatalf("ledger files: %v", matches)
	}
}
