// Datalog engine tests: textbook programs, natives, linearity, early exit,
// and the tuple store against a reference.
#include "datalog/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace rapar::dl {
namespace {

// Builds the classic transitive-closure program over a small graph.
struct TcProgram {
  Program prog;
  PredId edge, path;
  Sym a, b, c, d;

  TcProgram() {
    edge = prog.AddPred("edge", 2);
    path = prog.AddPred("path", 2);
    a = prog.ConstSym("a");
    b = prog.ConstSym("b");
    c = prog.ConstSym("c");
    d = prog.ConstSym("d");
    prog.AddFact(Atom{edge, {C(a), C(b)}});
    prog.AddFact(Atom{edge, {C(b), C(c)}});
    prog.AddFact(Atom{edge, {C(c), C(d)}});
    // path(X, Y) :- edge(X, Y).
    prog.AddRule(Rule{Atom{path, {V(0), V(1)}},
                      {Atom{edge, {V(0), V(1)}}},
                      {}});
    // path(X, Z) :- path(X, Y), edge(Y, Z).   (linear: edge is EDB)
    prog.AddRule(Rule{Atom{path, {V(0), V(2)}},
                      {Atom{path, {V(0), V(1)}}, Atom{edge, {V(1), V(2)}}},
                      {}});
  }
};

TEST(DatalogEngineTest, TransitiveClosure) {
  TcProgram tc;
  EXPECT_TRUE(Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}}));
  EXPECT_TRUE(Query(tc.prog, Atom{tc.path, {C(tc.b), C(tc.d)}}));
  EXPECT_FALSE(Query(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  EXPECT_FALSE(Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.a)}}));
}

TEST(DatalogEngineTest, FullEvalComputesAllTuples) {
  TcProgram tc;
  EvalStats stats;
  Database db = Eval(tc.prog, &stats);
  EXPECT_EQ(db.Tuples(tc.edge).size(), 3u);
  EXPECT_EQ(db.Tuples(tc.path).size(), 6u);  // 3+2+1 pairs
  EXPECT_EQ(stats.tuples, 9u);
}

TEST(DatalogEngineTest, LinearityCheck) {
  TcProgram tc;
  EXPECT_TRUE(tc.prog.IsLinear());
  // Non-linear variant: path(X,Z) :- path(X,Y), path(Y,Z).
  tc.prog.AddRule(Rule{
      Atom{tc.path, {V(0), V(2)}},
      {Atom{tc.path, {V(0), V(1)}}, Atom{tc.path, {V(1), V(2)}}},
      {}});
  EXPECT_FALSE(tc.prog.IsLinear());
}

TEST(DatalogEngineTest, EarlyExitStopsDerivation) {
  TcProgram tc;
  EvalStats stats;
  EvalOptions opts;
  opts.early_exit = true;
  EXPECT_TRUE(
      Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.b)}}, &stats, opts));
  EXPECT_TRUE(stats.goal_found);
  EXPECT_LT(stats.tuples, 9u);
}

TEST(DatalogEngineTest, NativeCheckFiltersBindings) {
  Program prog;
  PredId num = prog.AddPred("num", 1);
  PredId even = prog.AddPred("even", 1);
  std::vector<Sym> syms;
  for (int i = 0; i < 6; ++i) syms.push_back(prog.IntSym(i));
  for (Sym s : syms) prog.AddFact(Atom{num, {C(s)}});
  // even(X) :- num(X), is_even[X].
  Rule r;
  r.head = Atom{even, {V(0)}};
  r.body = {Atom{num, {V(0)}}};
  Native check;
  check.name = "is_even";
  check.inputs = {V(0)};
  // Sym values for IntSym(i) were interned in order, so sym == i here.
  check.fn = [](std::span<const Sym> in, Sym*) { return in[0] % 2 == 0; };
  r.natives.push_back(std::move(check));
  prog.AddRule(std::move(r));

  Database db = Eval(prog);
  EXPECT_EQ(db.Tuples(even).size(), 3u);  // 0, 2, 4
}

TEST(DatalogEngineTest, NativeFunctionBindsOutput) {
  Program prog;
  PredId num = prog.AddPred("num", 1);
  PredId succ = prog.AddPred("succ", 2);
  for (int i = 0; i < 4; ++i) prog.IntSym(i);
  prog.AddFact(Atom{num, {C(0)}});
  // num(Y), succ(X, Y) :- num(X), plus1[X] -> Y  (two rules)
  for (PredId head : {num, succ}) {
    Rule r;
    r.head = head == num ? Atom{num, {V(1)}} : Atom{succ, {V(0), V(1)}};
    r.body = {Atom{num, {V(0)}}};
    Native plus1;
    plus1.name = "plus1";
    plus1.inputs = {V(0)};
    plus1.output = 1;
    plus1.fn = [](std::span<const Sym> in, Sym* out) {
      if (in[0] >= 3) return false;  // stay within interned range
      *out = in[0] + 1;
      return true;
    };
    r.natives.push_back(std::move(plus1));
    prog.AddRule(std::move(r));
  }
  Database db = Eval(prog);
  EXPECT_EQ(db.Tuples(num).size(), 4u);   // 0..3
  EXPECT_EQ(db.Tuples(succ).size(), 3u);  // (0,1) (1,2) (2,3)
}

TEST(DatalogEngineTest, TupleBudgetThrows) {
  TcProgram tc;
  EvalOptions opts;
  opts.max_tuples = 4;
  // BudgetExceeded derives from runtime_error (legacy catch sites).
  EXPECT_THROW(Eval(tc.prog, nullptr, opts), std::runtime_error);
  try {
    Eval(tc.prog, nullptr, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.budget(), 4u);
  }
}

// --- input validation (release-build UB fixes) ----------------------------
// These used to be assert-only: in an NDEBUG build a non-ground goal read
// Term::val of a variable as a constant and an unbound native input
// dereferenced an empty optional. They are structured errors now.

TEST(DatalogEngineTest, NonGroundGoalIsRejected) {
  TcProgram tc;
  EXPECT_THROW(Query(tc.prog, Atom{tc.path, {V(0), C(tc.a)}}),
               std::invalid_argument);
}

TEST(DatalogEngineTest, ArityMismatchedGoalIsRejected) {
  TcProgram tc;
  EXPECT_THROW(Query(tc.prog, Atom{tc.path, {C(tc.a)}}),
               std::invalid_argument);
  EXPECT_THROW(Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.b), C(tc.c)}}),
               std::invalid_argument);
}

TEST(DatalogEngineTest, UnknownGoalPredicateIsRejected) {
  TcProgram tc;
  EXPECT_THROW(Query(tc.prog, Atom{static_cast<PredId>(99), {}}),
               std::invalid_argument);
}

TEST(DatalogEngineTest, UnboundNativeInputIsRejected) {
  // q(X) :- p(X), f[Y] -> Z: Y is bound by nothing when the native runs.
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  Rule r;
  r.head = Atom{q, {V(0)}};
  r.body = {Atom{p, {V(0)}}};
  Native f;
  f.name = "f";
  f.inputs = {V(1)};  // unbound
  f.output = 2;
  f.fn = [](std::span<const Sym>, Sym* out) {
    *out = 0;
    return true;
  };
  r.natives.push_back(std::move(f));
  prog.AddRule(std::move(r));
  EXPECT_THROW(Eval(prog), std::invalid_argument);
  EXPECT_THROW(Query(prog, Atom{q, {C(a)}}), std::invalid_argument);
}

TEST(DatalogEngineTest, NativeInputBoundByEarlierOutputIsAccepted) {
  // q(Z) :- p(X), f[X] -> Y, g[Y] -> Z: chained outputs are fine.
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  Rule r;
  r.head = Atom{q, {V(2)}};
  r.body = {Atom{p, {V(0)}}};
  auto id = [](std::span<const Sym> in, Sym* out) {
    *out = in[0];
    return true;
  };
  Native f;
  f.name = "f";
  f.inputs = {V(0)};
  f.output = 1;
  f.fn = id;
  Native g;
  g.name = "g";
  g.inputs = {V(1)};
  g.output = 2;
  g.fn = id;
  r.natives.push_back(std::move(f));
  r.natives.push_back(std::move(g));
  prog.AddRule(std::move(r));
  EXPECT_TRUE(Query(prog, Atom{q, {C(a)}}));
}

TEST(DatalogEngineTest, UnboundHeadVariableIsRejected) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  // q(Y) :- p(X): Y is unbound.
  prog.AddRule(Rule{Atom{q, {V(1)}}, {Atom{p, {V(0)}}}, {}});
  EXPECT_THROW(Eval(prog), std::invalid_argument);
}

TEST(DatalogEngineTest, BodyAtomArityMismatchIsRejected) {
  Program prog;
  PredId p = prog.AddPred("p", 2);
  PredId q = prog.AddPred("q", 1);
  prog.AddRule(Rule{Atom{q, {V(0)}}, {Atom{p, {V(0)}}}, {}});  // p used /1
  EXPECT_THROW(Eval(prog), std::invalid_argument);
}

// --- argument-hash indexes and engine reuse -------------------------------

TEST(DatalogEngineTest, IndexReducesJoinAttempts) {
  TcProgram tc;
  EvalStats indexed, scanned;
  EvalOptions scan;
  scan.engine.use_index = false;
  Eval(tc.prog, &scanned, scan);
  Eval(tc.prog, &indexed);
  EXPECT_EQ(indexed.tuples, scanned.tuples);
  EXPECT_LT(indexed.join_attempts, scanned.join_attempts);
  EXPECT_GT(indexed.index_probes, 0u);
  EXPECT_GT(indexed.index_builds, 0u);
  EXPECT_EQ(scanned.index_probes, 0u);
  EXPECT_EQ(scanned.index_builds, 0u);
}

TEST(DatalogEngineTest, EngineReusesFactSnapshotAcrossSolves) {
  // A warm engine seeds every solve afresh: the same program solves to
  // the same fixpoint again, and a different fact set is seen in full.
  TcProgram tc;
  Engine engine;
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  const std::size_t first = engine.last_stats().tuples;
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  EXPECT_EQ(engine.last_stats().tuples, first);

  TcProgram other;
  other.prog.AddFact(Atom{other.edge, {C(other.d), C(other.a)}});
  EXPECT_TRUE(
      engine.Solve(other.prog, Atom{other.path, {C(other.d), C(other.b)}}));
}

TEST(DatalogEngineTest, EngineReusesAcrossDifferentDerivedPredicates) {
  // The Datalog backend's per-guess programs share their EDB but differ
  // in derived-only predicates; a warm engine must follow a
  // predicate-count change in both directions (grow, then shrink).
  TcProgram a;
  Engine engine;
  EXPECT_FALSE(engine.Solve(a.prog, Atom{a.path, {C(a.d), C(a.a)}}));

  TcProgram b;
  PredId twohop = b.prog.AddPred("twohop", 2);
  b.prog.AddRule(Rule{
      Atom{twohop, {V(0), V(2)}},
      {Atom{b.edge, {V(0), V(1)}}, Atom{b.edge, {V(1), V(2)}}},
      {}});
  EXPECT_TRUE(engine.Solve(b.prog, Atom{twohop, {C(b.a), C(b.c)}}));

  TcProgram c;
  EXPECT_TRUE(engine.Solve(c.prog, Atom{c.path, {C(c.a), C(c.d)}}));
}

TEST(DatalogEngineTest, ProgramPrinting) {
  TcProgram tc;
  std::string text = tc.prog.ToString();
  EXPECT_NE(text.find("path(X0, X2) :- path(X0, X1), edge(X1, X2)."),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("edge(a, b)."), std::string::npos);
  EXPECT_NE(text.find(".decl path/2"), std::string::npos);
}

TEST(DatalogEngineTest, PrintsViewWordsAsTimestamps) {
  // Three timestamps of two bits each, 16 to a word: one view word per
  // view. Timestamps are the first constants, so Sym t names timestamp t.
  Program prog;
  for (const char* ts : {"t0", "t1", "t2", "t3"}) prog.ConstSym(ts);
  prog.SetViewLayout(ViewLayout{3, 2});
  const PredId v = prog.AddPred("v", 2, /*view=*/true);
  const PredId w = prog.AddPred("w", 2, /*view=*/true);
  prog.AddFact(Atom{v, {C(1), C(0b100111)}});  // 3, 1, 2 at fields 0..2
  Rule r{Atom{w, {V(0), V(2)}}, {Atom{v, {V(0), V(1)}}}, {}};
  Native leq;
  leq.op = Native::Op::kLeq;
  leq.shift = 2;
  leq.width = 2;
  leq.name = "leq";
  leq.inputs = {V(1), C(0b1000)};
  Native max;
  max.op = Native::Op::kMax;
  max.width = 2;
  max.name = "max";
  max.inputs = {V(1), C(0b110000)};
  max.output = 2;
  r.natives = {leq, max};
  prog.AddRule(std::move(r));
  const std::string text = prog.ToString();
  EXPECT_NE(text.find(".decl v/4"), std::string::npos) << text;
  // Constant 1 is not in a view: t1. The view word: fields 3, 1, 2.
  EXPECT_NE(text.find("v(t1, t3, t1, t2)."), std::string::npos) << text;
  EXPECT_NE(text.find("w(X0, X2.0, X2.1, X2.2) :- v(X0, X1.0, X1.1, X1.2), "
                      "leq[X1.1,t2], max[X1,{2:t3}]->X2."),
            std::string::npos)
      << text;
}

TEST(DatalogEngineTest, PrintsConstantsOutsideTheTableAsNumbers) {
  Program prog;
  const PredId p = prog.AddPred("p", 2);
  const Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a), C(0xfffffffeu)}});
  EXPECT_NE(prog.ToString().find("p(a, #4294967294)."), std::string::npos)
      << prog.ToString();
}

TEST(DatalogEngineTest, IdbPredsExcludesFactOnly) {
  TcProgram tc;
  std::vector<bool> idb = tc.prog.IdbPreds();
  EXPECT_FALSE(idb[tc.edge]);
  EXPECT_TRUE(idb[tc.path]);
}

// Reference model of a Database: each predicate's tuples in insertion
// order plus their set.
struct RefDb {
  std::vector<std::vector<std::vector<Sym>>> order;
  std::vector<std::set<std::vector<Sym>>> members;

  explicit RefDb(std::size_t preds) : order(preds), members(preds) {}

  bool Insert(PredId p, const std::vector<Sym>& t) {
    if (!members[p].insert(t).second) return false;
    order[p].push_back(t);
    return true;
  }
};

// Every stored tuple is found at its insertion index, Contains agrees
// with the reference on members and on `probes`, and sizes match.
void ExpectSameStore(const Database& db, const RefDb& ref,
                     const std::vector<std::vector<Sym>>& probes,
                     const std::string& label) {
  ASSERT_EQ(db.num_preds(), ref.order.size()) << label;
  for (PredId p = 0; p < ref.order.size(); ++p) {
    ASSERT_EQ(db.Size(p), ref.order[p].size()) << label << " pred " << p;
    for (std::size_t ti = 0; ti < ref.order[p].size(); ++ti) {
      const std::vector<Sym>& want = ref.order[p][ti];
      const std::vector<Sym> got(db.At(p, ti), db.At(p, ti) + want.size());
      ASSERT_EQ(got, want) << label << " pred " << p << " tuple " << ti;
      ASSERT_TRUE(db.Contains(p, want)) << label << " pred " << p;
    }
    for (const std::vector<Sym>& t : probes) {
      if (t.size() != p + 1) continue;
      ASSERT_EQ(db.Contains(p, t), ref.members[p].count(t) == 1)
          << label << " pred " << p;
    }
  }
}

// Predicate p has arity p + 1. Cells mix small symbols with packed-view
// words whose high bits differ, as makeP emits them.
std::vector<Sym> RandomTuple(Rng& rng, std::size_t arity, std::uint64_t dom) {
  std::vector<Sym> t(arity);
  for (Sym& c : t) {
    const auto v = static_cast<Sym>(rng.Below(dom));
    c = rng.Chance(1, 2) ? v : (v << 24) | 0x5u;
  }
  return t;
}

// Interleaves Insert, Contains and Reset (to three or four predicates),
// with enough distinct tuples that the tables grow several times between
// resets, and checks the whole store after each step. A reset keeps the
// grown slot tables, which the inserts after it refill.
TEST(DatabaseTest, RandomOperationsMatchReference) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    std::size_t preds = 3;
    Database db(preds);
    RefDb ref(preds);
    const std::uint64_t dom = 4 + rng.Below(6);
    for (int step = 0; step < 400; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      std::vector<std::vector<Sym>> probes;
      for (int i = 0; i < 6; ++i) {
        const std::size_t arity = 1 + rng.Below(preds);
        probes.push_back(RandomTuple(rng, arity, dom));
      }
      const std::uint64_t op = rng.Below(100);
      if (op < 80) {
        for (int i = 0; i < 12; ++i) {
          const auto p = static_cast<PredId>(rng.Below(preds));
          const std::vector<Sym> t = RandomTuple(rng, p + 1, dom);
          ASSERT_EQ(db.Insert(p, t), ref.Insert(p, t)) << label;
        }
      } else {
        if (op >= 97) preds = preds == 3 ? 4 : 3;
        db.Reset(preds);
        ref = RefDb(preds);
      }
      ExpectSameStore(db, ref, probes, label);
      if (HasFatalFailure()) return;
    }
  }
}

// One predicate through four growths (16 to 256 slots), then reset and
// given the same 100 inserts again: in the 256-slot table the reset
// kept, every tuple comes back as new, in insertion order.
TEST(DatabaseTest, TruncateAfterGrowthRestoresTheTable) {
  Database db(1);
  RefDb ref(1);
  auto tuple = [](std::size_t i) {
    return std::vector<Sym>{static_cast<Sym>(i % 7),
                            static_cast<Sym>(i << 20)};
  };
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert(0, tuple(i)));
    ref.Insert(0, tuple(i));
  }
  std::vector<std::vector<Sym>> probes;
  for (std::size_t i = 0; i < 120; ++i) probes.push_back(tuple(i));
  ExpectSameStore(db, ref, probes, "filled");
  db.Reset(1);
  ref = RefDb(1);
  ExpectSameStore(db, ref, probes, "reset");
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(db.Insert(0, tuple(i)), ref.Insert(0, tuple(i)));
  }
  ExpectSameStore(db, ref, probes, "refilled");
}

}  // namespace
}  // namespace rapar::dl
