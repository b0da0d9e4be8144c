// Differential testing of the indexed join core against the naive-scan
// configuration: on random programs (including forced self-joins, which
// exercise the delta-at-each-position path), evaluation with
// argument-hash indexes must derive exactly the same database, with the
// same firings in the same sequence, and answer every ground query
// identically to the plain scan evaluator. Both join in body order, so
// the index switch is all that tells the production configuration from
// the reference. Also: a warm Engine solving again — from any warm pool
// state, and across guess-like fact and rule deltas — must answer like a
// fresh Engine, with the same per-solve counters.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/engine.h"

namespace rapar::dl {
namespace {

using GroundAtom = std::vector<Sym>;  // [pred, args...]

EvalOptions WithIndex(bool use_index) {
  EvalOptions opts;
  opts.engine.use_index = use_index;
  return opts;
}

std::set<GroundAtom> Materialize(const Program& prog, const Database& db) {
  std::set<GroundAtom> out;
  for (PredId p = 0; p < prog.num_preds(); ++p) {
    for (const auto& tuple : db.Tuples(p)) {
      GroundAtom g{p};
      g.insert(g.end(), tuple.begin(), tuple.end());
      out.insert(std::move(g));
    }
  }
  return out;
}

// Random programs with up to 3 body atoms; `force_self_join` makes every
// multi-atom rule repeat a predicate in its body.
Program RandomDatalog(Rng& rng, int preds, int consts, int rules,
                      bool force_self_join) {
  Program prog;
  std::vector<PredId> pids;
  std::vector<std::size_t> arity;
  for (int p = 0; p < preds; ++p) {
    arity.push_back(1 + rng.Below(2));  // arity 1-2: joinable positions
    pids.push_back(prog.AddPred("p" + std::to_string(p), arity.back()));
  }
  std::vector<Sym> syms;
  for (int c = 0; c < consts; ++c) {
    syms.push_back(prog.ConstSym("c" + std::to_string(c)));
  }
  auto random_const = [&] { return syms[rng.Below(syms.size())]; };

  for (int f = 0; f < 4; ++f) {
    const std::size_t p = rng.Below(pids.size());
    Atom a;
    a.pred = pids[p];
    for (std::size_t i = 0; i < arity[p]; ++i) {
      a.args.push_back(C(random_const()));
    }
    prog.AddFact(std::move(a));
  }
  for (int r = 0; r < rules; ++r) {
    Rule rule;
    const int body_atoms = 1 + static_cast<int>(rng.Below(3));
    std::vector<VarSym> avail;
    VarSym next_var = 0;
    std::size_t self_pred = rng.Below(pids.size());
    for (int b = 0; b < body_atoms; ++b) {
      const std::size_t p = (force_self_join && body_atoms > 1)
                                ? self_pred
                                : rng.Below(pids.size());
      Atom a;
      a.pred = pids[p];
      for (std::size_t i = 0; i < arity[p]; ++i) {
        if (!avail.empty() && rng.Chance(1, 3)) {
          a.args.push_back(V(avail[rng.Below(avail.size())]));
        } else if (rng.Chance(1, 4)) {
          a.args.push_back(C(random_const()));
        } else {
          a.args.push_back(V(next_var));
          avail.push_back(next_var);
          ++next_var;
        }
      }
      rule.body.push_back(std::move(a));
    }
    const std::size_t hp = rng.Below(pids.size());
    Atom head;
    head.pred = pids[hp];
    for (std::size_t i = 0; i < arity[hp]; ++i) {
      if (!avail.empty() && rng.Chance(3, 4)) {
        head.args.push_back(V(avail[rng.Below(avail.size())]));
      } else {
        head.args.push_back(C(random_const()));
      }
    }
    rule.head = std::move(head);
    prog.AddRule(std::move(rule));
  }
  return prog;
}

class IndexDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IndexDifferentialTest, IndexedMatchesScanDatabase) {
  Rng rng(GetParam());
  const bool self_join = GetParam() % 3 == 0;
  Program prog = RandomDatalog(rng, /*preds=*/4, /*consts=*/3, /*rules=*/7,
                               self_join);

  EvalStats scan_stats, index_stats;
  Database scan_db = Eval(prog, &scan_stats, WithIndex(false));
  Database index_db = Eval(prog, &index_stats, WithIndex(true));

  const std::set<GroundAtom> reference = Materialize(prog, scan_db);
  EXPECT_EQ(Materialize(prog, index_db), reference) << prog.ToString();
  // Same fixpoint: identical derived-tuple counts. In the same body order
  // an index probe visits a subset of the scanned candidates but the same
  // matches in the same sequence, so firings are identical and join
  // attempts can only shrink.
  EXPECT_EQ(index_stats.tuples, scan_stats.tuples);
  EXPECT_EQ(index_stats.rule_firings, scan_stats.rule_firings);
  EXPECT_LE(index_stats.join_attempts, scan_stats.join_attempts);

  // Every ground probe (derivable and not) answers identically.
  Rng probe_rng(GetParam() + 77);
  for (int probe = 0; probe < 8; ++probe) {
    const PredId p = static_cast<PredId>(probe_rng.Below(prog.num_preds()));
    Atom goal{p, {}};
    for (std::size_t i = 0; i < prog.pred(p).arity; ++i) {
      goal.args.push_back(
          C(static_cast<Sym>(probe_rng.Below(prog.num_consts()))));
    }
    EvalStats qs_scan, qs_index;
    const bool scan = Query(prog, goal, &qs_scan, WithIndex(false));
    const bool indexed = Query(prog, goal, &qs_index, WithIndex(true));
    EXPECT_EQ(indexed, scan) << prog.AtomToString(goal) << "\n"
                             << prog.ToString();
    EXPECT_EQ(qs_index.goal_found, qs_scan.goal_found);
  }
}

// Exact per-solve counters: everything the row store and its lazy indexes
// can influence.
void ExpectSameCounters(const EvalStats& a, const EvalStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.tuples, b.tuples) << label;
  EXPECT_EQ(a.rule_firings, b.rule_firings) << label;
  EXPECT_EQ(a.join_attempts, b.join_attempts) << label;
  EXPECT_EQ(a.index_hits, b.index_hits) << label;
  EXPECT_EQ(a.index_probes, b.index_probes) << label;
}

TEST_P(IndexDifferentialTest, EngineReuseMatchesFreshSolves) {
  Rng rng(GetParam() + 9000);
  Program prog = RandomDatalog(rng, 3, 3, 5, GetParam() % 2 == 0);
  Atom goal{0, {}};
  goal.args.assign(prog.pred(0).arity, C(0));

  Engine warm;
  for (int i = 0; i < 3; ++i) {
    Engine fresh;
    EXPECT_EQ(warm.Solve(prog, goal), fresh.Solve(prog, goal)) << i;
    EXPECT_EQ(warm.last_stats().goal_found, fresh.last_stats().goal_found);
    ExpectSameCounters(warm.last_stats(), fresh.last_stats(),
                       "solve " + std::to_string(i));
  }
}

// The engine has one relation layout (DESIGN.md §13); the matrix is the
// pool states a solve can start from.
TEST_P(IndexDifferentialTest, StorageMatrixMatchesHashDatabase) {
  Rng rng(GetParam() + 40000);
  const bool self_join = GetParam() % 3 == 0;
  Program prog = RandomDatalog(rng, /*preds=*/4, /*consts=*/3, /*rules=*/7,
                               self_join);
  // A different program (and fact set): solving it in between leaves the
  // pool and indexes warm with other tuples.
  const Program other = RandomDatalog(rng, 4, 3, 7, !self_join);

  EvalStats hash_stats;
  Eval(prog, &hash_stats);

  // The states a solve can start from: a cold arena, an arena warm from
  // the same program and one warm from a different fact set. Each must
  // derive the cold hash database with the same derivation sequence.
  EvalOptions full;
  full.early_exit = false;
  Engine warm;
  const Program* sequence[] = {&prog, &prog, &other, &prog, &prog};
  for (std::size_t i = 0; i < std::size(sequence); ++i) {
    Atom goal{0, {}};
    goal.args.assign(sequence[i]->pred(0).arity, C(0));
    warm.Solve(*sequence[i], goal, full);
    if (sequence[i] == &prog) {
      ExpectSameCounters(warm.last_stats(), hash_stats,
                         "solve " + std::to_string(i));
    }
  }

  // Every ground probe answers like a cold Query, with the same counters,
  // from the warm engine's pool.
  Rng probe_rng(GetParam() + 277);
  for (int probe = 0; probe < 4; ++probe) {
    const PredId p = static_cast<PredId>(probe_rng.Below(prog.num_preds()));
    Atom g{p, {}};
    for (std::size_t i = 0; i < prog.pred(p).arity; ++i) {
      g.args.push_back(C(static_cast<Sym>(probe_rng.Below(prog.num_consts()))));
    }
    EvalStats cold;
    const bool expected = Query(prog, g, &cold);
    EXPECT_EQ(warm.Solve(prog, g), expected) << prog.AtomToString(g);
    EXPECT_EQ(warm.last_stats().goal_found, cold.goal_found);
    ExpectSameCounters(warm.last_stats(), cold, prog.AtomToString(g));
  }
}

// One solve mode (DESIGN.md §13): the deltas are between the programs.
TEST_P(IndexDifferentialTest, DeltaSolveMatrixMatchesFreshSolves) {
  Rng rng(GetParam() + 50000);
  Program base = RandomDatalog(rng, 4, 3, 6, GetParam() % 2 == 0);
  Atom goal{0, {}};
  goal.args.assign(base.pred(0).arity, C(0));

  // A guess-like sequence of deltas: each step adds facts to the base
  // program (a fact delta), and each step's variant adds one rule over
  // the same facts (a rule delta) — the shape of consecutive makeP
  // guesses.
  std::vector<Program> steps;
  for (int g = 0; g < 4; ++g) {
    Program p = base;
    Rng grng(GetParam() * 131 + static_cast<std::uint64_t>(g));
    for (int f = 0; f <= g; ++f) {
      const PredId fp = static_cast<PredId>(grng.Below(p.num_preds()));
      Atom a{fp, {}};
      for (std::size_t i = 0; i < p.pred(fp).arity; ++i) {
        a.args.push_back(C(static_cast<Sym>(grng.Below(p.num_consts()))));
      }
      p.AddFact(std::move(a));
    }
    steps.push_back(p);
    Rule r;
    const PredId hp = static_cast<PredId>(grng.Below(p.num_preds()));
    r.head.pred = hp;
    for (std::size_t i = 0; i < p.pred(hp).arity; ++i) {
      r.head.args.push_back(C(static_cast<Sym>(grng.Below(p.num_consts()))));
    }
    const PredId bp = static_cast<PredId>(grng.Below(p.num_preds()));
    Atom b{bp, {}};
    for (std::size_t i = 0; i < p.pred(bp).arity; ++i) {
      b.args.push_back(V(static_cast<VarSym>(i)));
    }
    r.body.push_back(std::move(b));
    p.AddRule(std::move(r));
    steps.push_back(std::move(p));
  }

  // The warm engine's derivation sequence — not just its fixpoint —
  // matches a fresh engine's on every step.
  Engine warm;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    Engine fresh;
    EXPECT_EQ(warm.Solve(steps[i], goal), fresh.Solve(steps[i], goal))
        << "step=" << i;
    EXPECT_EQ(warm.last_stats().goal_found, fresh.last_stats().goal_found)
        << "step=" << i;
    ExpectSameCounters(warm.last_stats(), fresh.last_stats(),
                       "step " + std::to_string(i));
  }
}

// A three-hop self-join, path(X, W) :- path(X, Y), path(Y, Z),
// path(Z, W), over random edges and a self-loop. The third atom probes
// the same (path, first argument) index as the second, and its catch-up
// folds in the tuples this join emitted so far; on the self-loop they
// carry the key the second atom is walking. That walk must stop at the
// extension size it started from, as the scan does, so that firings
// match the scan's.
TEST_P(IndexDifferentialTest, WalkStopsAtTheProbeSnapshot) {
  Rng rng(GetParam() + 60000);
  Program prog;
  const PredId path = prog.AddPred("path", 2);
  std::vector<Sym> v;
  for (int i = 0; i < 4; ++i) {
    v.push_back(prog.ConstSym("v" + std::to_string(i)));
  }
  const Sym loop = v[rng.Below(v.size())];
  prog.AddFact(Atom{path, {C(loop), C(loop)}});
  for (int e = 0; e < 8; ++e) {
    prog.AddFact(
        Atom{path, {C(v[rng.Below(v.size())]), C(v[rng.Below(v.size())])}});
  }
  prog.AddRule(Rule{Atom{path, {V(0), V(3)}},
                    {Atom{path, {V(0), V(1)}}, Atom{path, {V(1), V(2)}},
                     Atom{path, {V(2), V(3)}}},
                    {}});
  EvalStats scan_stats, index_stats;
  const Database scan = Eval(prog, &scan_stats, WithIndex(false));
  const Database indexed = Eval(prog, &index_stats, WithIndex(true));
  EXPECT_EQ(Materialize(prog, indexed), Materialize(prog, scan));
  EXPECT_EQ(index_stats.rule_firings, scan_stats.rule_firings)
      << prog.ToString();
  EXPECT_LE(index_stats.join_attempts, scan_stats.join_attempts);
}

// 320 seeds: IndexedMatchesScanDatabase alone is > 300 random programs.
INSTANTIATE_TEST_SUITE_P(Random, IndexDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 321));

// Explicit self-join shapes: the same predicate at two (or three) body
// positions, with the delta arriving at each position.
TEST(IndexSelfJoinTest, SamePredicateTwiceDerivesAllPairs) {
  Program prog;
  PredId n = prog.AddPred("n", 1);
  PredId pair = prog.AddPred("pair", 2);
  Sym a = prog.ConstSym("a"), b = prog.ConstSym("b"),
      c = prog.ConstSym("c");
  for (Sym s : {a, b, c}) prog.AddFact(Atom{n, {C(s)}});
  // pair(X, Y) :- n(X), n(Y).
  prog.AddRule(
      Rule{Atom{pair, {V(0), V(1)}}, {Atom{n, {V(0)}}, Atom{n, {V(1)}}}, {}});
  for (bool use_index : {false, true}) {
    Database db = Eval(prog, nullptr, WithIndex(use_index));
    EXPECT_EQ(db.Tuples(pair).size(), 9u);
  }
}

TEST(IndexSelfJoinTest, RecursiveSelfJoinReachesFixpoint) {
  // Transitive closure written as the non-linear self-join
  // path(X, Z) :- path(X, Y), path(Y, Z): every new path tuple is a delta
  // for both body positions.
  Program prog;
  PredId path = prog.AddPred("path", 2);
  std::vector<Sym> v;
  for (int i = 0; i < 5; ++i) v.push_back(prog.ConstSym("v" + std::to_string(i)));
  for (int i = 0; i + 1 < 5; ++i) {
    prog.AddFact(Atom{path, {C(v[i]), C(v[i + 1])}});
  }
  prog.AddRule(Rule{Atom{path, {V(0), V(2)}},
                    {Atom{path, {V(0), V(1)}}, Atom{path, {V(1), V(2)}}},
                    {}});
  EvalStats scan_stats, index_stats;
  Database scan = Eval(prog, &scan_stats, WithIndex(false));
  Database indexed = Eval(prog, &index_stats, WithIndex(true));
  EXPECT_EQ(scan.Tuples(path).size(), 10u);  // 4+3+2+1 pairs
  EXPECT_EQ(indexed.Tuples(path).size(), 10u);
  EXPECT_EQ(index_stats.tuples, scan_stats.tuples);
  EXPECT_LT(index_stats.join_attempts, scan_stats.join_attempts);
  EXPECT_GT(index_stats.index_probes, 0u);
  EXPECT_GT(index_stats.index_builds, 0u);
}

}  // namespace
}  // namespace rapar::dl
