package main

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/workload/banking"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/tpcds"
)

// roundKind selects what the tuning round after a phase runs.
type roundKind int

const (
	noRound roundKind = iota
	// recommendRound: CloseWindow, Diagnose, Recommend, Apply.
	recommendRound
	// pruneRound: Diagnose, PruneRecommendation + ApplyDrops, then
	// Recommend + Apply (the paper's removal path, Fig. 1).
	pruneRound
)

// phase is a stretch of statements run back to back by the single client,
// followed by an optional tuning round.
type phase struct {
	name  string
	sqls  []string
	round roundKind
	// decay ages the template store after the round (workload shift).
	decay bool
}

// workloadDef is one benchmark workload. setup builds a fresh database for
// the seed and returns the generator of the run's statement phases; gen is
// called once, after setup and before any timing. scale 1 is the reference
// run length (see refSeconds).
type workloadDef struct {
	name string
	why  string
	// readOnly workloads must return identical results for identical SQL
	// throughout a run, before and after tuning.
	readOnly bool
	setup    func(seed int64) (db *engine.DB, gen func(scale float64) []phase, err error)
}

var workloads = []*workloadDef{
	{
		name:  "oltp",
		why:   "TPC-C, 23 short templates shifting mix: parse/observe/plan share, seq scans untuned, incremental add and drop",
		setup: setupOLTP,
	},
	{
		name:     "analytic",
		why:      "TPC-DS query set: executor-bound hash joins and aggregates; parse is under 1% of a statement",
		readOnly: true,
		setup:    setupAnalytic,
	},
	{
		name:  "banking",
		why:   "over-indexed banking withdrawals, 1/3 writes: index maintenance, bulk index removal, buffer-pool eviction",
		setup: setupBanking,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// oltpScale is the TPC-C scale: about 1.7k data pages, well inside the
// default buffer pool.
const oltpScale = 30

// OLTP transactions per epoch at scale 1 (the observation epoch runs once
// per replica).
const (
	oltpObserveTxns = 300
	oltpEpochTxns   = 8000
)

func setupOLTP(seed int64) (*engine.DB, func(float64) []phase, error) {
	db := engine.New()
	l := tpcc.NewLoader(oltpScale, seed)
	if err := l.Load(db); err != nil {
		return nil, nil, err
	}
	gen := func(scale float64) []phase {
		txns := func(n int, mix tpcc.Mix) []string {
			return harness.Flatten(l.Transactions(scaled(n, scale), mix))
		}
		// The Fig. 9 protocol: an observation epoch on the PK-only
		// configuration, then mix shifts with a tuning round at each
		// boundary and template decay after it.
		return []phase{
			{name: "observe/standard", sqls: txns(oltpObserveTxns, tpcc.StandardMix()), round: recommendRound, decay: true},
			{name: "write-heavy", sqls: txns(oltpEpochTxns, tpcc.WriteHeavyMix()), round: recommendRound, decay: true},
			{name: "read-heavy", sqls: txns(oltpEpochTxns, tpcc.ReadHeavyMix()), round: recommendRound, decay: true},
			{name: "standard", sqls: txns(oltpEpochTxns, tpcc.StandardMix())},
		}
	}
	return db, gen, nil
}

// Seeded shuffled passes over the TPC-DS query set at scale 1: before
// tuning (the observation window) and after.
const (
	analyticObservePasses = 1
	analyticPasses        = 24
)

func setupAnalytic(seed int64) (*engine.DB, func(float64) []phase, error) {
	db := engine.New()
	if err := tpcds.NewLoader(seed).Load(db); err != nil {
		return nil, nil, err
	}
	gen := func(scale float64) []phase {
		qs := tpcds.QuerySet()
		rng := rand.New(rand.NewSource(seed))
		pass := func() []string {
			out := make([]string, len(qs))
			for i, j := range rng.Perm(len(qs)) {
				out[i] = qs[j].SQL
			}
			return out
		}
		passes := func(n int) []string {
			var out []string
			for p := 0; p < scaled(n, scale); p++ {
				out = append(out, pass()...)
			}
			return out
		}
		observe := passes(analyticObservePasses)
		post := passes(analyticPasses)
		return []phase{
			{name: "observe", sqls: observe, round: recommendRound},
			{name: "passes", sqls: post},
		}
	}
	return db, gen, nil
}

// bankingPoolPages is about a quarter of the ~1,370 heap pages a banking
// run touches (account, card, txn_history, withdraw_flow and the rows the
// run inserts), so the buffer pool evicts.
const bankingPoolPages = 340

// Withdrawal statements at scale 1.
const (
	bankingObserveStmts = 20000
	bankingPostStmts    = 200000
)

func setupBanking(seed int64) (*engine.DB, func(float64) []phase, error) {
	db, err := engine.NewWithConfig(engine.Config{BufferPoolPages: bankingPoolPages})
	if err != nil {
		return nil, nil, err
	}
	l := banking.NewLoader(seed)
	if err := l.Load(db); err != nil {
		return nil, nil, err
	}
	if _, err := l.InstallDefaultIndexes(db); err != nil {
		return nil, nil, err
	}
	gen := func(scale float64) []phase {
		nObs, nPost := scaled(bankingObserveStmts, scale), scaled(bankingPostStmts, scale)
		// One call: the service numbers its inserted rows per call, so a
		// second call would collide on primary keys.
		all := l.WithdrawalService(nObs + nPost)
		return []phase{
			{name: "observe", sqls: all[:nObs], round: pruneRound},
			{name: "withdrawals", sqls: all[nObs:]},
		}
	}
	return db, gen, nil
}

// scaled sizes a phase: n at scale 1, at least 1.
func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}
