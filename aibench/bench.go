package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/autoindex"
	"repro/internal/bufferpool"
	"repro/internal/candgen"
	"repro/internal/engine"
	"repro/internal/mcts"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/session"
	"repro/internal/sqlparser"
	"repro/internal/template"
)

// config is one benchmark run's input.
type config struct {
	workload *workloadDef
	seed     int64
	// scale sizes the phases (1 = reference length).
	scale float64
	// replicas is how many times the run builds its database and drives it
	// through the observation window and the first tuning round; the last
	// replica goes on to the rest of the run.
	replicas int
	trace    bool
	// skipTuning runs the same statements with every tuning round left
	// out (index transparency check in the tests).
	skipTuning bool
}

// mctsSeed seeds the policy-tree search. It is fixed rather than taken from
// the workload seed: with early stopping, the search's length — and so
// tune_s — would otherwise vary up to twofold from seed to seed (145 to 332
// iterations on analytic), which no run length can steady.
const mctsSeed = 1

// classifyWorkers splits statement classification, which runs before any
// timing, across the box's two CPUs.
const classifyWorkers = 2

// stmtMeta is what the benchmark knows about a statement before timing.
type stmtMeta struct {
	tmpl  int32 // SQL2Template fingerprint id
	write bool
	// check marks statements whose result does not depend on the plan and
	// so enter the checksum.
	check bool
}

// counters is a deterministic ledger over a set of statements.
type counters struct {
	stmts, writes int64
	stats         engine.ExecStats
	cost          float64
	// checksum digests the results of the check-eligible statements, in
	// statement order; each result is digested order-insensitively.
	checksum uint64
}

func (c *counters) add(res *engine.Result, write bool) {
	c.stmts++
	if write {
		c.writes++
	}
	if res != nil {
		c.stats.Add(res.Stats)
		c.cost += res.Stats.ActualCost()
	}
}

// roundTimes sums the wall time of each tuning call, nanoseconds.
type roundTimes struct {
	diagnose, prune, recommend, apply, candgen int64
}

// result is everything one run measured.
type result struct {
	attempted, failed int64
	firstErr          string
	problems          []string // correctness failures

	setupNs []int64 // one per replica

	// Observation window on the starting configuration: busy time and
	// statements over all replicas, counters of the last replica.
	untunedNs, untunedStmts int64
	untuned                 counters

	postLat  []int64 // per-statement latency after the first round, ns
	postTmpl []int32
	post     counters
	// Summaries of postLat, computed before the live heap is measured.
	postBusyNs int64
	p99Us      float64
	tmplGeoUs  float64
	nTemplates int

	tuneNs int64
	rounds roundTimes

	indexBytes          int64
	created, dropped    int
	candidates          int // candgen.Generate pool size, summed over rounds
	evaluations, mhits  int
	mctsIterations      int64
	whatifHits, whatifM int64
	templates           int
	matches, misses     int64
	poolPost            bufferpool.Stats
	allocsPost          uint64
	heapLiveMB          float64

	tr     *tracer
	reg    *obs.Registry // manager-local registry (traced run only)
	planNs int64         // planner calls of the traced plan pass
	planN  int64
}

// instance is one built database with the system wrapped around it.
type instance struct {
	sm     *session.Manager
	mgr    *autoindex.Manager
	phases []phase
	// firstByText holds each read-only statement's first result digest.
	firstByText map[string]uint64
}

// run executes one benchmark run: cfg.replicas times setup, observation
// window and first tuning round (setup_s and the first round's share of
// tune_s are medians over them, untuned_stmts_per_s pools them), then the
// rest of the run on the last replica.
func run(cfg config) (*result, error) {
	var r *result
	var inst *instance
	var metas [][]stmtMeta
	var streams uint64
	var firstDigest string
	var setupNs, roundNs []int64
	var untunedNs, untunedStmts, attempted, failed int64
	var problems []string
	var firstErr string
	for i := 0; i < cfg.replicas; i++ {
		last := i == cfg.replicas-1
		inst = nil
		runtime.GC()
		t0 := time.Now()
		db, gen, err := cfg.workload.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", cfg.workload.name, err)
		}
		setupNs = append(setupNs, int64(time.Since(t0)))

		rr := &result{}
		inst = rr.newInstance(cfg, db, gen(cfg.scale), last)
		if metas == nil {
			if metas, err = classify(inst.sm, inst.phases); err != nil {
				return nil, err
			}
			streams = streamDigest(inst.phases)
		} else if streamDigest(inst.phases) != streams {
			return nil, fmt.Errorf("determinism bug: replica %d generated different statements from the same seed", i)
		}
		firstPost := firstPostPhase(inst.phases)
		if err := rr.runPhases(cfg, inst, metas, 0, firstPost); err != nil {
			return nil, err
		}
		digest, err := rr.prefixDigest(inst)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			firstDigest = digest
		} else if digest != firstDigest {
			problems = append(problems, fmt.Sprintf(
				"determinism bug: replica %d ended the first round as %s, replica 0 as %s", i, digest, firstDigest))
		}
		problems = append(problems, rr.problems...)
		untunedNs += rr.untunedNs
		untunedStmts += rr.untunedStmts
		attempted += rr.attempted
		failed += rr.failed
		if firstErr == "" {
			firstErr = rr.firstErr
		}
		roundNs = append(roundNs, rr.tuneNs)
		if last {
			r = rr
		}
	}
	r.problems = problems
	r.setupNs = setupNs
	r.untunedNs, r.untunedStmts = untunedNs, untunedStmts
	r.attempted, r.failed, r.firstErr = attempted, failed, firstErr
	r.tuneNs = int64(medianInt64(roundNs))

	if err := r.runPhases(cfg, inst, metas, firstPostPhase(inst.phases), len(inst.phases)); err != nil {
		return nil, err
	}
	store := inst.mgr.TemplateStore()
	r.templates = store.Len()
	r.matches, r.misses = store.MatchStats()
	var err error
	if r.indexBytes, err = secondaryIndexBytes(inst.sm); err != nil {
		return nil, err
	}
	r.summarizeLatency()

	// Live heap of the system alone: the benchmark's own stream buffers
	// are released first.
	sm, mgr := inst.sm, inst.mgr
	inst, metas = nil, nil
	r.postLat, r.postTmpl = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(sm)
	runtime.KeepAlive(mgr)
	return r, nil
}

// newInstance wraps db in the session layer and the index manager. The
// untraced path attaches the manager as the statement observer; the traced
// path calls Observe itself so that the call can be timed.
func (r *result) newInstance(cfg config, db *engine.DB, phases []phase, last bool) *instance {
	sm := session.New(db, session.Options{Seed: cfg.seed})
	mgr := autoindex.New(db, autoindex.Options{MCTS: mcts.Config{
		Iterations: 400, Rollouts: 5, Seed: mctsSeed, EarlyStopRounds: 120}})
	mgr.UseSessions(sm)
	inst := &instance{sm: sm, mgr: mgr, phases: phases}
	if cfg.workload.readOnly {
		inst.firstByText = make(map[string]uint64)
	}
	if !cfg.trace {
		mgr.Attach()
		return inst
	}
	// A manager-local registry exposes the MCTS iteration counter; the
	// engine and the session layer stay uninstrumented.
	r.reg = obs.NewRegistry()
	mgr.Instrument(r.reg, nil)
	firstPost := firstPostPhase(phases)
	spans := 64
	for i, ph := range phases {
		if i < firstPost || last {
			spans += 5 * len(ph.sqls)
		}
	}
	r.tr = newTracer(spans)
	return inst
}

// runPhases executes phases [from, to) and the tuning round after each.
func (r *result) runPhases(cfg config, inst *instance, metas [][]stmtMeta, from, to int) error {
	firstPost := firstPostPhase(inst.phases)
	if from == firstPost {
		n := 0
		for _, ph := range inst.phases[firstPost:] {
			n += len(ph.sqls)
		}
		r.postLat = make([]int64, 0, n)
		r.postTmpl = make([]int32, 0, n)
	}
	for pi := from; pi < to; pi++ {
		ph := inst.phases[pi]
		r.runPhase(inst, ph, metas[pi], pi >= firstPost)
		if ph.round == noRound || cfg.skipTuning {
			continue
		}
		if err := r.tuningRound(context.Background(), inst, ph); err != nil {
			return err
		}
	}
	return nil
}

// runPhase runs one phase's statements back to back and accounts them. A
// failed statement is counted and the stream goes on.
func (r *result) runPhase(inst *instance, ph phase, metas []stmtMeta, post bool) {
	sm := inst.sm
	runtime.GC()
	// Pool and allocation counters bracket the statements alone: index
	// builds and the traced plan pass fall outside.
	var poolStart bufferpool.Stats
	var msStart runtime.MemStats
	if post {
		poolStart = poolStats(sm)
		runtime.ReadMemStats(&msStart)
	}
	acct := &r.untuned
	if post {
		acct = &r.post
	}
	var scratch []byte
	phSpan := r.tr.begin("phase", -1)
	for i, sql := range ph.sqls {
		m := metas[i]
		var res *engine.Result
		var err error
		var d int64
		if r.tr == nil {
			t0 := time.Now()
			res, err = sm.Exec(sql)
			d = int64(time.Since(t0))
		} else {
			res, d, err = r.execTraced(inst, sql, phSpan)
		}
		r.attempted++
		if err != nil {
			r.failed++
			if r.firstErr == "" {
				r.firstErr = fmt.Sprintf("%s: %v", sql, err)
			}
		}
		if post {
			r.postLat = append(r.postLat, d)
			r.postTmpl = append(r.postTmpl, m.tmpl)
		} else {
			r.untunedNs += d
			r.untunedStmts++
		}
		acct.add(res, m.write)
		if res == nil || !m.check && inst.firstByText == nil {
			continue
		}
		var h uint64
		h, scratch = resultHash(res.Rows, res.Stats.RowsAffected, scratch)
		if m.check {
			acct.checksum = mix64(acct.checksum + h)
		}
		if inst.firstByText != nil {
			if prev, ok := inst.firstByText[sql]; !ok {
				inst.firstByText[sql] = h
			} else if prev != h && len(r.problems) < 5 {
				r.problems = append(r.problems, fmt.Sprintf(
					"read-only statement returned a different result than its first run (index transparency): %s", sql))
			}
		}
	}
	r.tr.end(phSpan)
	if post {
		var msEnd runtime.MemStats
		runtime.ReadMemStats(&msEnd)
		r.allocsPost += msEnd.Mallocs - msStart.Mallocs
		end := poolStats(sm)
		r.poolPost.Hits += end.Hits - poolStart.Hits
		r.poolPost.Misses += end.Misses - poolStart.Misses
		r.poolPost.Evictions += end.Evictions - poolStart.Evictions
	}
	if r.tr != nil {
		r.planPass(sm, ph.sqls)
	}
}

// prefixDigest summarizes the deterministic state after the observation
// window and the first round; every replica must reach the same one.
func (r *result) prefixDigest(inst *instance) (string, error) {
	bytes, err := secondaryIndexBytes(inst.sm)
	if err != nil {
		return "", err
	}
	u := r.untuned
	return fmt.Sprintf("checksum=%016x cost=%v stats=%+v created=%d dropped=%d index_bytes=%d failed=%d",
		u.checksum, u.cost, u.stats, r.created, r.dropped, bytes, r.failed), nil
}

// streamDigest hashes every statement of every phase, so replicas can be
// checked to have generated the same streams without keeping two copies.
func streamDigest(phases []phase) uint64 {
	h := uint64(fnvOffset)
	for _, ph := range phases {
		for _, sql := range ph.sqls {
			for i := 0; i < len(sql); i++ {
				h = (h ^ uint64(sql[i])) * fnvPrime
			}
			h = (h ^ 0xff) * fnvPrime
		}
		h = mix64(h)
	}
	return h
}

// firstPostPhase is the index of the first phase after the first tuning
// round (whether or not the round runs).
func firstPostPhase(phases []phase) int {
	for i, ph := range phases {
		if ph.round != noRound {
			return i + 1
		}
	}
	return len(phases)
}

func poolStats(sm *session.Manager) bufferpool.Stats {
	var s bufferpool.Stats
	_ = sm.Read(func(db *engine.DB) error { s = db.BufferPool().Stats(); return nil }) // the callback never fails
	return s
}

// secondaryIndexBytes sums the footprint of the real non-primary-key
// indexes.
func secondaryIndexBytes(sm *session.Manager) (int64, error) {
	var n int64
	err := sm.Read(func(db *engine.DB) error {
		for _, idx := range db.Catalog().Indexes(false) {
			if !strings.HasPrefix(idx.Name, "pk_") {
				n += idx.SizeBytes
			}
		}
		return nil
	})
	return n, err
}

// execTraced runs one statement as parse → observe → execute, each call
// its own span under a statement span. It does the same work as the
// untraced path (session.Exec with the manager attached as observer).
func (r *result) execTraced(inst *instance, sql string, parent int32) (*engine.Result, int64, error) {
	tr := r.tr
	st := tr.begin("stmt", parent)
	p := tr.begin("sqlparser.parse", st)
	stmt, err := sqlparser.Parse(sql)
	tr.end(p)
	if err != nil {
		tr.end(st)
		return nil, tr.duration(st), err
	}
	o := tr.begin("template.observe", st)
	err = inst.mgr.Observe(sql)
	tr.end(o)
	if err != nil {
		tr.end(st)
		return nil, tr.duration(st), err
	}
	e := tr.begin("session.exec", st)
	res, err := inst.sm.ExecStmt(stmt)
	tr.end(e)
	tr.end(st)
	return res, tr.duration(st), err
}

// planPass times planner.PlanSelect / PlanWrite for each statement of a
// finished phase on the live catalog (traced run only; the plan is
// discarded).
func (r *result) planPass(sm *session.Manager, sqls []string) {
	pass := r.tr.begin("plan_pass", -1)
	for _, sql := range sqls {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		_ = sm.Read(func(db *engine.DB) error { // the callback never fails
			cat := db.Catalog()
			id := r.tr.begin("planner.plan", pass)
			if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
				_, _ = planner.PlanSelect(cat, sel) // timed only; the engine reports real planning errors
			} else {
				_, _ = planner.PlanWrite(cat, stmt)
			}
			r.tr.end(id)
			r.planNs += r.tr.duration(id)
			r.planN++
			return nil
		})
	}
	r.tr.end(pass)
}

// timedCall runs one tuning call under a span and adds its wall time to
// tune_s and to the module's sum.
func (r *result) timedCall(name string, round int32, sum *int64, call func() error) error {
	runtime.GC()
	id := r.tr.begin(name, round)
	t0 := time.Now()
	err := call()
	d := int64(time.Since(t0))
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.tuneNs += d
	*sum += d
	return nil
}

// tuningRound runs one round through the manager's public entry points:
// Diagnose, then PruneRecommendation + ApplyDrops on a prune round, then
// Recommend + Apply.
func (r *result) tuningRound(ctx context.Context, inst *instance, ph phase) error {
	mgr := inst.mgr
	round := r.tr.begin("tuning_round", -1)
	defer r.tr.end(round)
	if ph.round == recommendRound {
		mgr.CloseWindow()
	}
	if r.tr != nil {
		// A separate candidate generation on the round's workload times
		// the candgen module alone (traced run only; not part of tune_s).
		w := mgr.TemplateStore().Workload()
		id := r.tr.begin("candgen.generate", round)
		_ = inst.sm.Read(func(db *engine.DB) error { // the callback never fails
			r.candidates += len(candgen.NewGenerator(db.Catalog()).Generate(ctx, w))
			return nil
		})
		r.tr.end(id)
		r.rounds.candgen += r.tr.duration(id)
	}
	hits, misses, _ := mgr.Estimator().CacheStats()
	var iters int64
	if r.reg != nil {
		iters = r.reg.Counter("mcts_iterations_total", "").Value()
	}
	if err := r.timedCall("autoindex.diagnose", round, &r.rounds.diagnose, func() error {
		_, err := mgr.Diagnose(ctx)
		return err
	}); err != nil {
		return err
	}
	apply := func(call func() (*autoindex.ApplyReport, error)) error {
		return r.timedCall("autoindex.apply", round, &r.rounds.apply, func() error {
			rep, err := call()
			if err == nil {
				r.created += len(rep.Created)
				r.dropped += len(rep.Dropped)
			}
			return err
		})
	}
	if ph.round == pruneRound {
		var drops []string
		if err := r.timedCall("autoindex.prune", round, &r.rounds.prune, func() error {
			var err error
			drops, err = mgr.PruneRecommendation(ctx, mgr.TemplateStore().Workload())
			return err
		}); err != nil {
			return err
		}
		if err := apply(func() (*autoindex.ApplyReport, error) { return mgr.ApplyDrops(ctx, drops) }); err != nil {
			return err
		}
	}
	var rec *autoindex.Recommendation
	if err := r.timedCall("autoindex.recommend", round, &r.rounds.recommend, func() error {
		var err error
		rec, err = mgr.Recommend(ctx)
		return err
	}); err != nil {
		return err
	}
	r.evaluations += rec.Evaluations
	r.mhits += rec.MCTSCacheHits
	if err := apply(func() (*autoindex.ApplyReport, error) { return mgr.Apply(ctx, rec) }); err != nil {
		return err
	}
	h, m, _ := mgr.Estimator().CacheStats()
	r.whatifHits += h - hits
	r.whatifM += m - misses
	if r.reg != nil {
		r.mctsIterations += r.reg.Counter("mcts_iterations_total", "").Value() - iters
	}
	if ph.decay {
		mgr.TemplateStore().Decay(0.3, 0.5)
	}
	return nil
}

// classify fingerprints every statement with SQL2Template and marks which
// ones enter the checksum, before timing starts. Fingerprinting runs on
// classifyWorkers goroutines; template ids follow first appearance in the
// stream, so they do not depend on the split.
func classify(sm *session.Manager, phases []phase) ([][]stmtMeta, error) {
	pks := make(map[string][]string)
	_ = sm.Read(func(db *engine.DB) error { // the callback never fails
		for _, t := range db.Catalog().Tables() {
			pks[t.Name] = t.PrimaryKey
		}
		return nil
	})
	ids := make(map[string]int32)
	out := make([][]stmtMeta, len(phases))
	for pi, ph := range phases {
		fps := make([]string, len(ph.sqls))
		out[pi] = make([]stmtMeta, len(ph.sqls))
		errs := make([]error, classifyWorkers)
		var wg sync.WaitGroup
		for w := 0; w < classifyWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ph.sqls); i += classifyWorkers {
					fp, stmt, err := template.FingerprintSQL(ph.sqls[i])
					if err != nil {
						errs[w] = fmt.Errorf("classify %q: %w", ph.sqls[i], err)
						return
					}
					fps[i] = fp
					m := stmtMeta{check: true}
					if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
						m.check = !planDependent(sel, pks)
					} else {
						m.write = true
					}
					out[pi][i] = m
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		for i, fp := range fps {
			id, ok := ids[fp]
			if !ok {
				id = int32(len(ids))
				ids[fp] = id
			}
			out[pi][i].tmpl = id
		}
	}
	return out, nil
}

// planDependent reports whether a SELECT's result may depend on the plan: a
// LIMIT cuts a result whose ORDER BY is not a total order, so tied rows may
// come out differently under another access path. ORDER BY is taken as
// total when it names every GROUP BY key, or, on a single table, every
// primary-key column.
func planDependent(s *sqlparser.SelectStmt, pks map[string][]string) bool {
	if s.Limit < 0 {
		return false
	}
	ordered := make(map[string]bool, len(s.OrderBy))
	for _, o := range s.OrderBy {
		ordered[o.Expr.String()] = true
		if c, ok := o.Expr.(*sqlparser.ColumnRef); ok {
			ordered[c.Column] = true
		}
	}
	if len(s.GroupBy) > 0 {
		for _, g := range s.GroupBy {
			if !ordered[g.String()] {
				return true
			}
		}
		return false
	}
	if len(s.From) != 1 || len(s.Joins) > 0 || s.From[0].Subquery != nil {
		return true
	}
	pk := pks[s.From[0].Name]
	if len(pk) == 0 {
		return true
	}
	for _, col := range pk {
		if !ordered[col] {
			return true
		}
	}
	return false
}

// summarizeLatency reduces the post-tune latency samples to the reported
// figures.
func (r *result) summarizeLatency() {
	for _, d := range r.postLat {
		r.postBusyNs += d
	}
	sorted := append([]int64(nil), r.postLat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r.p99Us = float64(nearestRank(sorted, 99)) / 1e3
	meds := templateMedians(r.postLat, r.postTmpl)
	r.tmplGeoUs = geoMean(meds)
	r.nTemplates = len(meds)
}

// templateMedians returns each template's median post-tune latency in µs,
// ordered by template id.
func templateMedians(lat []int64, tmpl []int32) []float64 {
	by := make(map[int32][]int64)
	for i, d := range lat {
		by[tmpl[i]] = append(by[tmpl[i]], d)
	}
	keys := make([]int32, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = medianInt64(by[k]) / 1e3
	}
	return out
}
