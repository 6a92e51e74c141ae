// Package mcts implements AutoIndex's MCTS-based index update (paper §IV-B).
// A policy tree represents index configurations: the root is the current
// index set, and each edge either adds one candidate index or removes one
// existing index. Search balances exploitation and exploration with the
// paper's UCB utility
//
//	U(v) = B(v) + γ·sqrt(ln F(v0) / F(v))
//
// where the node benefit B(v) is the best (normalized) workload cost
// reduction seen in v's subtree and F counts visits. Random K-rollouts
// estimate a freshly expanded node's benefit, and benefits back-propagate as
// a running max toward the root.
package mcts

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/floatcmp"
	"repro/internal/obs"
)

// Evaluator prices a whole workload under a hypothetical index set. The
// AutoIndex pipeline adapts costmodel.Estimator to this. Implementations
// should honor ctx cancellation and return ctx.Err(); the search treats such
// errors as a deadline, not a failure.
type Evaluator interface {
	WorkloadCost(ctx context.Context, active []*catalog.IndexMeta) (float64, error)
}

// EvaluatorFunc adapts a closure to Evaluator.
type EvaluatorFunc func(ctx context.Context, active []*catalog.IndexMeta) (float64, error)

// WorkloadCost implements Evaluator.
func (f EvaluatorFunc) WorkloadCost(ctx context.Context, active []*catalog.IndexMeta) (float64, error) {
	return f(ctx, active)
}

// Config tunes the search.
type Config struct {
	// Gamma is the exploration constant γ (default 1.4).
	Gamma float64
	// Iterations bounds selection/expansion rounds (default 200).
	Iterations int
	// Rollouts is K, the random descendants explored to estimate a node's
	// benefit (default 5, paper: "e.g., 5 leaf nodes for dozens of indexes").
	Rollouts int
	// Budget caps total index bytes; <= 0 means unlimited.
	Budget int64
	// Seed makes the search deterministic.
	Seed int64
	// EarlyStopRounds stops when the best benefit hasn't improved for this
	// many consecutive iterations (<=0 disables; paper: stop on meeting the
	// performance expectation).
	EarlyStopRounds int
	// Metrics, when set, receives mcts_* counters (searches, iterations,
	// expansions, evaluations). Nil: no metric work at all.
	Metrics *obs.Registry
	// Span, when set, receives per-search events: one "best_improved" event
	// per strict improvement of the incumbent configuration, and summary
	// attributes at the end. Nil: no tracing work at all.
	Span *obs.Span
}

func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = 1.4
	}
	if c.Iterations <= 0 {
		c.Iterations = 200
	}
	if c.Rollouts <= 0 {
		c.Rollouts = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// action is one edge in the policy tree.
type action struct {
	add    *catalog.IndexMeta // non-nil: add this candidate
	remove *catalog.IndexMeta // non-nil: remove this existing index
}

func (a action) String() string {
	if a.add != nil {
		return "+" + a.add.Key()
	}
	if a.remove != nil {
		return "-" + a.remove.Key()
	}
	return "·"
}

// node is one explored policy-tree vertex: an index configuration.
type node struct {
	parent   *node
	act      action
	indexes  []*catalog.IndexMeta
	size     int64
	children []*node
	// untried actions remaining at this node (nil until expansion begins).
	untried []action
	prepped bool
	visits  float64
	// benefit is the best normalized cost reduction in this subtree.
	benefit float64
	// ownCost is this configuration's evaluated workload cost (NaN until
	// evaluated).
	ownCost float64
}

// Result reports the best configuration the search found.
type Result struct {
	// Indexes is the recommended full index set (excluding PKs).
	Indexes []*catalog.IndexMeta
	// AddedKeys / RemovedKeys diff the recommendation against the initial set.
	AddedKeys   []string
	RemovedKeys []string
	// BaseCost and BestCost are estimator costs before/after.
	BaseCost, BestCost float64
	// Evaluations counts estimator calls (the expensive operation).
	Evaluations int
	// CacheHits counts configuration evaluations answered by the searcher's
	// whole-set cost cache instead of the estimator.
	CacheHits int
	// Iterations actually performed.
	Iterations int
	// SizeBytes is the recommendation's total index footprint.
	SizeBytes int64
	// Trajectory records each strict improvement of the incumbent best
	// configuration: the best-reward curve of the search.
	Trajectory []TrajectoryPoint
	// Degraded reports that the search stopped early on context
	// cancellation or deadline and the result is the best-so-far
	// configuration rather than a fully converged one.
	Degraded bool
}

// TrajectoryPoint is one best-reward improvement during the search.
type TrajectoryPoint struct {
	// Iteration is the 1-based search iteration the improvement landed on
	// (0: the root evaluation before the loop).
	Iteration int
	// Cost is the incumbent best workload cost after the improvement.
	Cost float64
}

// Benefit returns the absolute estimated cost reduction.
func (r *Result) Benefit() float64 { return r.BaseCost - r.BestCost }

// Search runs MCTS from the existing index set over the candidate pool.
// Existing must not contain primary-key indexes (they are not actionable).
//
// The context bounds the search: cancellation is checked between iterations
// (and inside the evaluator), and on deadline the best-so-far configuration
// is returned with Result.Degraded set — never an error — so a tuning round
// overruns its deadline by at most the iteration in flight. A context
// already done before the root evaluation returns ctx.Err(). A
// never-cancelled context adds zero nondeterminism: every ctx check sees
// nil and the search is byte-identical to an unbounded one.
func Search(ctx context.Context, eval Evaluator, existing, candidates []*catalog.IndexMeta, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	s := &searcher{
		ctx:        ctx,
		eval:       eval,
		candidates: candidates,
		cfg:        cfg,
		rng:        rng,
		costCache:  make(map[string]float64),
	}

	root := &node{
		indexes: append([]*catalog.IndexMeta{}, existing...),
		size:    totalSize(existing),
		ownCost: math.NaN(),
	}
	// Checked here rather than left to the evaluator, which may finish the
	// root evaluation before it sees the cancellation: a search cancelled
	// before it has a base cost has no result to degrade to.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	baseCost, err := s.cost(root.indexes)
	if err != nil {
		return nil, err
	}
	root.ownCost = baseCost
	s.baseCost = math.Max(baseCost, 1e-9)

	best := root
	bestCost := baseCost
	sinceImprove := 0
	iters := 0
	expansions := 0
	trajectory := []TrajectoryPoint{{Iteration: 0, Cost: baseCost}}

	// better prefers clearly lower cost; on (near-)ties it prefers the
	// smaller configuration, so cost-neutral indexes never join the result.
	better := func(cost float64, size int64) bool {
		if floatcmp.Less(cost, bestCost) {
			return true
		}
		return floatcmp.LessEq(cost, bestCost) && size < best.size
	}

	degraded := false
	for i := 0; i < cfg.Iterations; i++ {
		if ctx.Err() != nil {
			degraded = true
			break
		}
		iters++
		leaf, err := s.selectAndExpand(root)
		if err != nil {
			if isCtxErr(err) {
				degraded = true
				break
			}
			return nil, err
		}
		if leaf == nil {
			break // tree exhausted
		}
		expansions++
		benefit, bn, bc, err := s.rollout(leaf)
		if err != nil {
			if isCtxErr(err) {
				degraded = true
				break
			}
			return nil, err
		}
		// Track the globally best evaluated configuration.
		if !math.IsNaN(leaf.ownCost) && withinBudget(leaf.size, cfg.Budget) && better(leaf.ownCost, leaf.size) {
			best = leaf
			bestCost = leaf.ownCost
			sinceImprove = 0
		} else if bn != nil && better(bc, bn.size) {
			best = bn
			bestCost = bc
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if sinceImprove == 0 {
			trajectory = append(trajectory, TrajectoryPoint{Iteration: iters, Cost: bestCost})
			cfg.Span.Event("best_improved",
				"iteration", iters, "cost", bestCost, "indexes", len(best.indexes))
		}
		s.backpropagate(leaf, benefit)
		if cfg.EarlyStopRounds > 0 && sinceImprove >= cfg.EarlyStopRounds {
			break
		}
	}

	res := &Result{
		Indexes:     append([]*catalog.IndexMeta{}, best.indexes...),
		BaseCost:    baseCost,
		BestCost:    bestCost,
		Evaluations: s.evaluations,
		CacheHits:   s.cacheHits,
		Iterations:  iters,
		SizeBytes:   best.size,
		Trajectory:  trajectory,
		Degraded:    degraded,
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("mcts_searches_total", "MCTS searches run").Inc()
		cfg.Metrics.Counter("mcts_iterations_total", "MCTS selection/expansion iterations").Add(int64(iters))
		cfg.Metrics.Counter("mcts_expansions_total", "Policy-tree nodes expanded").Add(int64(expansions))
		cfg.Metrics.Counter("mcts_evaluations_total", "Estimator configuration evaluations").Add(int64(s.evaluations))
		cfg.Metrics.Counter("mcts_config_cache_hits_total", "Configuration evaluations served from the whole-set cost cache").Add(int64(s.cacheHits))
	}
	cfg.Span.SetAttr("iterations", iters)
	cfg.Span.SetAttr("expansions", expansions)
	cfg.Span.SetAttr("evaluations", s.evaluations)
	cfg.Span.SetAttr("config_cache_hits", s.cacheHits)
	cfg.Span.SetAttr("base_cost", baseCost)
	cfg.Span.SetAttr("best_cost", bestCost)
	cfg.Span.SetAttr("degraded", degraded)
	initial := keySet(existing)
	final := keySet(best.indexes)
	for _, k := range sortedKeys(final) {
		if !initial[k] {
			res.AddedKeys = append(res.AddedKeys, k)
		}
	}
	for _, k := range sortedKeys(initial) {
		if !final[k] {
			res.RemovedKeys = append(res.RemovedKeys, k)
		}
	}
	return res, nil
}

// isCtxErr reports whether err stems from context cancellation or deadline —
// the signal to degrade to best-so-far instead of failing the search.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

type searcher struct {
	ctx         context.Context
	eval        Evaluator
	candidates  []*catalog.IndexMeta
	cfg         Config
	rng         *rand.Rand
	baseCost    float64
	costCache   map[string]float64
	evaluations int
	cacheHits   int
}

// cost evaluates (with caching) the workload cost of an index set.
func (s *searcher) cost(indexes []*catalog.IndexMeta) (float64, error) {
	key := setKey(indexes)
	if c, ok := s.costCache[key]; ok {
		s.cacheHits++
		return c, nil
	}
	c, err := s.eval.WorkloadCost(s.ctx, indexes)
	if err != nil {
		return 0, fmt.Errorf("mcts: evaluate %s: %w", key, err)
	}
	s.evaluations++
	s.costCache[key] = c
	return c, nil
}

// selectAndExpand walks the tree by maximum utility and expands one new
// child. Returns nil when no expandable node remains.
func (s *searcher) selectAndExpand(root *node) (*node, error) {
	cur := root
	for {
		s.prepare(cur)
		if len(cur.untried) > 0 {
			// Expand: take one untried action (random among untried to
			// diversify; utility guided selection already chose cur).
			i := s.rng.Intn(len(cur.untried))
			act := cur.untried[i]
			cur.untried = append(cur.untried[:i], cur.untried[i+1:]...)
			child := s.apply(cur, act)
			cur.children = append(cur.children, child)
			c, err := s.cost(child.indexes)
			if err != nil {
				return nil, err
			}
			child.ownCost = c
			return child, nil
		}
		if len(cur.children) == 0 {
			// Fully expanded leaf with no children: dead end.
			return nil, nil
		}
		cur = s.bestChild(cur, root)
	}
}

// prepare lazily computes a node's untried action list.
func (s *searcher) prepare(n *node) {
	if n.prepped {
		return
	}
	n.prepped = true
	present := keySet(n.indexes)
	for _, c := range s.candidates {
		if present[c.Key()] {
			continue
		}
		if !withinBudget(n.size+c.SizeBytes, s.cfg.Budget) {
			continue
		}
		n.untried = append(n.untried, action{add: c})
	}
	for _, m := range n.indexes {
		n.untried = append(n.untried, action{remove: m})
	}
}

// apply builds the child configuration for an action.
func (s *searcher) apply(parent *node, act action) *node {
	var indexes []*catalog.IndexMeta
	if act.add != nil {
		indexes = append(append([]*catalog.IndexMeta{}, parent.indexes...), act.add)
	} else {
		for _, m := range parent.indexes {
			if m != act.remove {
				indexes = append(indexes, m)
			}
		}
	}
	return &node{
		parent:  parent,
		act:     act,
		indexes: indexes,
		size:    totalSize(indexes),
		ownCost: math.NaN(),
	}
}

// bestChild picks the child with maximum utility U(v).
func (s *searcher) bestChild(n, root *node) *node {
	var best *node
	bestU := math.Inf(-1)
	for _, c := range n.children {
		u := c.benefit
		if c.visits > 0 {
			u += s.cfg.Gamma * math.Sqrt(math.Log(math.Max(root.visits, 1))/c.visits)
		} else {
			u = math.Inf(1)
		}
		if u > bestU {
			bestU = u
			best = c
		}
	}
	return best
}

// rollout estimates a node's benefit with K random completions: from the
// node, repeatedly apply random actions until the budget blocks or depth
// runs out, evaluating each endpoint. Returns the best normalized benefit,
// plus the best endpoint's (set, cost) as a detached candidate best.
func (s *searcher) rollout(n *node) (float64, *node, float64, error) {
	bestBenefit := s.normBenefit(n.ownCost)
	var bestNode *node
	bestCost := n.ownCost

	for k := 0; k < s.cfg.Rollouts; k++ {
		indexes := append([]*catalog.IndexMeta{}, n.indexes...)
		size := n.size
		// Rollout depth scales with the candidate pool so large
		// configurations (many independent index opportunities) are
		// reachable before the tree itself grows that deep.
		depth := 2 + s.rng.Intn(3+len(s.candidates)/3)
		for d := 0; d < depth; d++ {
			acts := s.randomActions(indexes, size)
			if len(acts) == 0 {
				break
			}
			act := acts[s.rng.Intn(len(acts))]
			if act.add != nil {
				indexes = append(indexes, act.add)
			} else {
				out := indexes[:0]
				for _, m := range indexes {
					if m != act.remove {
						out = append(out, m)
					}
				}
				indexes = out
			}
			size = totalSize(indexes)
		}
		c, err := s.cost(indexes)
		if err != nil {
			return 0, nil, 0, err
		}
		if b := s.normBenefit(c); b > bestBenefit {
			bestBenefit = b
			bestCost = c
			bestNode = &node{indexes: append([]*catalog.IndexMeta{}, indexes...), size: size, ownCost: c}
		}
	}
	return bestBenefit, bestNode, bestCost, nil
}

// randomActions lists the legal actions from an ad-hoc configuration.
func (s *searcher) randomActions(indexes []*catalog.IndexMeta, size int64) []action {
	present := keySet(indexes)
	var acts []action
	for _, c := range s.candidates {
		if present[c.Key()] {
			continue
		}
		if withinBudget(size+c.SizeBytes, s.cfg.Budget) {
			acts = append(acts, action{add: c})
		}
	}
	for _, m := range indexes {
		acts = append(acts, action{remove: m})
	}
	return acts
}

// normBenefit converts a cost to the normalized benefit used in utilities.
func (s *searcher) normBenefit(cost float64) float64 {
	if math.IsNaN(cost) {
		return 0
	}
	return (s.baseCost - cost) / s.baseCost
}

// backpropagate bumps visit counts and propagates the subtree-max benefit
// toward the root (paper step 3: ancestors redirect to better descendants).
func (s *searcher) backpropagate(n *node, benefit float64) {
	for cur := n; cur != nil; cur = cur.parent {
		cur.visits++
		if benefit > cur.benefit {
			cur.benefit = benefit
		}
	}
}

func withinBudget(size, budget int64) bool {
	return budget <= 0 || size <= budget
}

func totalSize(indexes []*catalog.IndexMeta) int64 {
	var t int64
	for _, m := range indexes {
		t += m.SizeBytes
	}
	return t
}

func keySet(indexes []*catalog.IndexMeta) map[string]bool {
	out := make(map[string]bool, len(indexes))
	for _, m := range indexes {
		out[m.Key()] = true
	}
	return out
}

// sortedKeys drains a key set in deterministic order.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setKey canonically identifies a configuration for caching.
func setKey(indexes []*catalog.IndexMeta) string {
	keys := make([]string, len(indexes))
	for i, m := range indexes {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
