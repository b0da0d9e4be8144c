// Release-build guard: the engine and Cache-Datalog translation units
// linked into this binary are compiled with NDEBUG (see
// tests/CMakeLists.txt), so every assert() in them is a no-op. Malformed
// goals and unsafe rules used to be caught only by asserts — in a release
// build a non-ground goal read Term::val of a variable as a constant
// symbol and an unbound native input dereferenced an empty optional.
// These tests pin the explicit validation path of both evaluators, and
// the shape checks of the native ops: structured std::invalid_argument,
// never UB.
#include <gtest/gtest.h>

#include <stdexcept>

#include "datalog/cache.h"
#include "datalog/engine.h"

namespace rapar::dl {
namespace {

Program Tc() {
  Program prog;
  PredId edge = prog.AddPred("edge", 2);
  PredId path = prog.AddPred("path", 2);
  Sym a = prog.ConstSym("a"), b = prog.ConstSym("b"), c = prog.ConstSym("c");
  prog.AddFact(Atom{edge, {C(a), C(b)}});
  prog.AddFact(Atom{edge, {C(b), C(c)}});
  prog.AddRule(Rule{Atom{path, {V(0), V(1)}}, {Atom{edge, {V(0), V(1)}}}, {}});
  prog.AddRule(Rule{Atom{path, {V(0), V(2)}},
                    {Atom{path, {V(0), V(1)}}, Atom{edge, {V(1), V(2)}}},
                    {}});
  return prog;
}

TEST(DatalogReleaseGuardTest, AssertsAreCompiledOut) {
#ifndef NDEBUG
  FAIL() << "this binary must be built with NDEBUG to exercise the "
            "release path";
#endif
}

TEST(DatalogReleaseGuardTest, NonGroundGoalThrowsCleanly) {
  Program prog = Tc();
  const PredId path = 1;
  EXPECT_THROW(Query(prog, Atom{path, {V(0), C(0)}}), std::invalid_argument);
}

TEST(DatalogReleaseGuardTest, ArityMismatchedGoalThrowsCleanly) {
  Program prog = Tc();
  const PredId path = 1;
  EXPECT_THROW(Query(prog, Atom{path, {C(0)}}), std::invalid_argument);
}

TEST(DatalogReleaseGuardTest, UnknownPredicateGoalThrowsCleanly) {
  Program prog = Tc();
  EXPECT_THROW(Query(prog, Atom{static_cast<PredId>(42), {C(0)}}),
               std::invalid_argument);
}

TEST(DatalogReleaseGuardTest, UnboundNativeInputThrowsCleanly) {
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
  f.inputs = {V(7)};  // never bound
  f.output = 8;
  f.fn = [](std::span<const Sym>, Sym* out) {
    *out = 0;
    return true;
  };
  r.natives.push_back(std::move(f));
  prog.AddRule(std::move(r));
  EXPECT_THROW(Eval(prog), std::invalid_argument);
}

// p(a). q(X0) :- p(X0), <native>.
Program WithNative(Native n) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  prog.AddRule(Rule{Atom{q, {V(0)}}, {Atom{p, {V(0)}}}, {std::move(n)}});
  return prog;
}

Native Op(Native::Op op, std::vector<Term> inputs,
          std::optional<VarSym> output) {
  Native n;
  n.op = op;
  n.name = "n";
  n.inputs = std::move(inputs);
  n.output = output;
  return n;
}

TEST(DatalogReleaseGuardTest, MalformedOpNativesThrowCleanly) {
  const Native malformed[] = {
      Op(Native::Op::kLeq, {V(0)}, std::nullopt),              // 1 input
      Op(Native::Op::kLeq, {V(0), V(0), V(0)}, std::nullopt),  // 3 inputs
      Op(Native::Op::kLeq, {V(0), V(0)}, 1),                   // an output
      Op(Native::Op::kMax, {V(0), V(0)}, std::nullopt),        // no output
      Op(Native::Op::kMax, {V(0)}, 1),                         // 1 input
      Op(Native::Op::kCall, {V(0)}, std::nullopt),             // no fn
  };
  const Atom goal{1, {C(0)}};
  for (const Native& n : malformed) {
    const Program prog = WithNative(n);
    EXPECT_THROW(Eval(prog), std::invalid_argument) << prog.ToString();
    EXPECT_THROW(Query(prog, goal), std::invalid_argument);
    EXPECT_THROW(Engine().Solve(prog, goal), std::invalid_argument);
    EXPECT_THROW(CacheQuery(prog, goal, 3), std::invalid_argument);
    EXPECT_THROW(MinimalCacheSize(prog, goal, 3), std::invalid_argument);
  }
  // The well-formed shapes evaluate: a <= a holds, max(a, a) = a.
  EXPECT_TRUE(Query(WithNative(Op(Native::Op::kLeq, {V(0), V(0)},
                                  std::nullopt)),
                    goal));
  EXPECT_TRUE(Query(WithNative(Op(Native::Op::kMax, {V(0), V(0)}, 1)), goal));
  EXPECT_TRUE(CacheQuery(WithNative(Op(Native::Op::kMax, {V(0), V(0)}, 1)),
                         goal, 2)
                  .derivable);
}

TEST(DatalogReleaseGuardTest, UnsafeRuleMessageNamesTheVariable) {
  auto message = [](const Program& prog) -> std::string {
    try {
      ValidateProgram(prog);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  const std::string input =
      message(WithNative(Op(Native::Op::kLeq, {V(0), V(7)}, std::nullopt)));
  EXPECT_NE(input.find("(input X7 of native 'n' is not bound"),
            std::string::npos)
      << input;
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  prog.AddRule(Rule{Atom{q, {V(3)}}, {Atom{p, {V(0)}}}, {}});
  const std::string head = message(prog);
  EXPECT_NE(head.find("(head variable X3 is not bound"), std::string::npos)
      << head;
}

TEST(DatalogReleaseGuardTest, FieldSpecsOutsideTheWordThrowCleanly) {
  auto field = [](Native::Op op, std::uint8_t shift, std::uint8_t width) {
    Native n = Op(op, {V(0), V(0)},
                  op == Native::Op::kMax ? std::optional<VarSym>(1)
                                         : std::nullopt);
    n.shift = shift;
    n.width = width;
    return n;
  };
  const Native malformed[] = {
      field(Native::Op::kLeq, 0, 0),   // width 0
      field(Native::Op::kLeq, 0, 33),  // wider than the word
      field(Native::Op::kLeq, 30, 3),  // past bit 31
      field(Native::Op::kMax, 0, 0),   // width 0
      field(Native::Op::kMax, 0, 40),  // wider than the word
      field(Native::Op::kMax, 4, 4),   // a field-wise max with a shift
  };
  const Atom goal{1, {C(0)}};
  for (const Native& n : malformed) {
    const Program prog = WithNative(n);
    EXPECT_THROW(Eval(prog), std::invalid_argument) << prog.ToString();
    EXPECT_THROW(Query(prog, goal), std::invalid_argument);
    EXPECT_THROW(Engine().Solve(prog, goal), std::invalid_argument);
    EXPECT_THROW(CacheQuery(prog, goal, 3), std::invalid_argument);
    EXPECT_THROW(MinimalCacheSize(prog, goal, 3), std::invalid_argument);
  }
  // In-word specs evaluate: the top partial field, a field-wise max.
  EXPECT_TRUE(Query(WithNative(field(Native::Op::kLeq, 30, 2)), goal));
  EXPECT_TRUE(Query(WithNative(field(Native::Op::kMax, 0, 3)), goal));
}

TEST(DatalogReleaseGuardTest, CacheSolverValidatesItsGoal) {
  Program prog = Tc();
  const PredId path = 1;
  for (const Atom& goal : {Atom{path, {V(0), C(0)}}, Atom{path, {C(0)}},
                           Atom{static_cast<PredId>(42), {C(0)}}}) {
    EXPECT_THROW(CacheQuery(prog, goal, 3), std::invalid_argument);
    EXPECT_THROW(MinimalCacheSize(prog, goal, 3), std::invalid_argument);
  }
  // Also when the search itself would not start (k = 0, limit = 0).
  EXPECT_THROW(CacheQuery(prog, Atom{path, {V(0), C(0)}}, 0),
               std::invalid_argument);
  EXPECT_THROW(MinimalCacheSize(prog, Atom{path, {V(0), C(0)}}, 0),
               std::invalid_argument);
}

TEST(DatalogReleaseGuardTest, CacheSolverRejectsUnsafeRules) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  // Unbound native input, then an unbound head variable.
  Rule r;
  r.head = Atom{q, {V(0)}};
  r.body = {Atom{p, {V(0)}}};
  r.natives.push_back(Op(Native::Op::kMax, {V(7), V(0)}, 8));
  prog.AddRule(r);
  EXPECT_THROW(CacheQuery(prog, Atom{q, {C(a)}}, 3), std::invalid_argument);
  EXPECT_THROW(MinimalCacheSize(prog, Atom{q, {C(a)}}, 3),
               std::invalid_argument);
  Program head;
  p = head.AddPred("p", 1);
  q = head.AddPred("q", 1);
  a = head.ConstSym("a");
  head.AddFact(Atom{p, {C(a)}});
  head.AddRule(Rule{Atom{q, {V(5)}}, {Atom{p, {V(0)}}}, {}});
  EXPECT_THROW(CacheQuery(head, Atom{q, {C(a)}}, 3), std::invalid_argument);
  EXPECT_THROW(MinimalCacheSize(head, Atom{q, {C(a)}}, 3),
               std::invalid_argument);
}

TEST(DatalogReleaseGuardTest, ValidQueriesStillWork) {
  Program prog = Tc();
  const PredId path = 1;
  EXPECT_TRUE(Query(prog, Atom{path, {C(0), C(2)}}));   // a ->* c
  EXPECT_FALSE(Query(prog, Atom{path, {C(2), C(0)}}));  // c -/-> a
  EXPECT_EQ(MinimalCacheSize(prog, Atom{path, {C(0), C(2)}}, 4), 3);
}

}  // namespace
}  // namespace rapar::dl
