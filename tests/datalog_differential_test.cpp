// Differential testing of the Datalog engine: the worklist (semi-naive)
// evaluator against a deliberately simple naive-iteration reference, on
// random programs — plain ones, and ones with kLeq/kMax/kCall natives and
// constant-keyed predicates for the engine's native loop and delta
// dispatch. Also: cache semantics against standard semantics at large k,
// and the linearisation against the cache solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.h"
#include "datalog/cache.h"
#include "datalog/cache_to_linear.h"
#include "datalog/engine.h"

namespace rapar::dl {
namespace {

// --- naive reference evaluator --------------------------------------------

using GroundAtom = std::vector<Sym>;  // [pred, args...]

// Enumerates all instantiations of `rule` whose body is satisfied in
// `facts`, adding heads to `out` (one naive round).
void NaiveRound(const Program& prog, const Rule& rule,
                const std::set<GroundAtom>& facts,
                std::set<GroundAtom>& out) {
  std::size_t num_vars = 0;
  auto scan = [&](const Term& t) {
    if (t.kind == Term::Kind::kVar && t.val + 1 > num_vars) {
      num_vars = t.val + 1;
    }
  };
  for (const Term& t : rule.head.args) scan(t);
  for (const Atom& a : rule.body) {
    for (const Term& t : a.args) scan(t);
  }
  for (const Native& n : rule.natives) {
    for (const Term& t : n.inputs) scan(t);
    if (n.output.has_value() && *n.output + 1 > num_vars) {
      num_vars = *n.output + 1;
    }
  }

  std::vector<std::optional<Sym>> env(num_vars);
  std::function<void(std::size_t)> match = [&](std::size_t at) {
    if (at == rule.body.size()) {
      // Natives.
      std::vector<VarSym> bound;
      bool ok = true;
      std::vector<Sym> buf;
      for (const Native& n : rule.natives) {
        const auto in = [&](std::size_t i) {
          const Term& t = n.inputs[i];
          return t.kind == Term::Kind::kConst ? t.val : *env[t.val];
        };
        Sym o = 0;
        if (!EvalNative(n, in, buf, &o)) {
          ok = false;
          break;
        }
        if (n.output.has_value()) {
          if (env[*n.output].has_value()) {
            if (*env[*n.output] != o) {
              ok = false;
              break;
            }
          } else {
            env[*n.output] = o;
            bound.push_back(*n.output);
          }
        }
      }
      if (ok) {
        GroundAtom h{rule.head.pred};
        for (const Term& t : rule.head.args) {
          h.push_back(t.kind == Term::Kind::kConst ? t.val : *env[t.val]);
        }
        out.insert(std::move(h));
      }
      for (VarSym v : bound) env[v] = std::nullopt;
      return;
    }
    const Atom& pat = rule.body[at];
    for (const GroundAtom& f : facts) {
      if (f[0] != pat.pred || f.size() != pat.args.size() + 1) continue;
      std::vector<VarSym> bound;
      bool ok = true;
      for (std::size_t i = 0; i < pat.args.size(); ++i) {
        const Term& t = pat.args[i];
        if (t.kind == Term::Kind::kConst) {
          if (t.val != f[i + 1]) {
            ok = false;
            break;
          }
        } else if (env[t.val].has_value()) {
          if (*env[t.val] != f[i + 1]) {
            ok = false;
            break;
          }
        } else {
          env[t.val] = f[i + 1];
          bound.push_back(t.val);
        }
      }
      if (ok) match(at + 1);
      for (VarSym v : bound) env[v] = std::nullopt;
    }
  };
  match(0);
  (void)prog;
}

std::set<GroundAtom> NaiveEval(const Program& prog) {
  std::set<GroundAtom> facts;
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<GroundAtom> next;
    for (const Rule& r : prog.rules()) NaiveRound(prog, r, facts, next);
    for (const GroundAtom& f : next) {
      if (facts.insert(f).second) changed = true;
    }
  }
  return facts;
}

// --- random program generation -----------------------------------------------

Program RandomDatalog(Rng& rng, int preds, int consts, int rules) {
  Program prog;
  std::vector<PredId> pids;
  std::vector<std::size_t> arity;
  for (int p = 0; p < preds; ++p) {
    arity.push_back(rng.Below(3));
    pids.push_back(prog.AddPred("p" + std::to_string(p), arity.back()));
  }
  std::vector<Sym> syms;
  for (int c = 0; c < consts; ++c) {
    syms.push_back(prog.ConstSym("c" + std::to_string(c)));
  }
  auto random_const = [&] { return syms[rng.Below(syms.size())]; };

  // A few ground facts.
  for (int f = 0; f < 3; ++f) {
    const std::size_t p = rng.Below(pids.size());
    Atom a;
    a.pred = pids[p];
    for (std::size_t i = 0; i < arity[p]; ++i) a.args.push_back(C(random_const()));
    prog.AddFact(std::move(a));
  }
  // Random rules with 1-2 body atoms and safe heads.
  for (int r = 0; r < rules; ++r) {
    Rule rule;
    const int body_atoms = 1 + static_cast<int>(rng.Below(2));
    std::vector<VarSym> avail;  // variables bound by the body
    VarSym next_var = 0;
    for (int b = 0; b < body_atoms; ++b) {
      const std::size_t p = rng.Below(pids.size());
      Atom a;
      a.pred = pids[p];
      for (std::size_t i = 0; i < arity[p]; ++i) {
        if (!avail.empty() && rng.Chance(1, 3)) {
          a.args.push_back(V(avail[rng.Below(avail.size())]));
        } else if (rng.Chance(1, 3)) {
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
      if (!avail.empty() && rng.Chance(2, 3)) {
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

// Random programs for the engine's native loop and delta dispatch.
// "Keyed" predicates hold a constant at their key position (any position,
// not only 0) in every body occurrence, so the engine dispatches their
// tuples by it; the other predicates mix constants and variables, so only
// some occurrences carry one. Rules carry kLeq, kMax and kCall natives:
// checks that reject, outputs that a body atom already bound (a
// comparison), native-only rules, and a kCall whose outputs leave the
// interned constants (0xffffffff - x, up to Sym 0xffffffff), so tuples
// reach the dispatch with constants no bucket holds. Half the kLeq and
// kMax natives read a random field spec. Every value stays in a finite
// set — 0..3 and 0xfffffffc..0xffffffff: the low two bits vary, the rest
// are all zero or all one, under the kCall and a field-wise max alike —
// so the naive reference terminates.
Program RandomNativeDatalog(Rng& rng) {
  constexpr std::size_t kUnkeyed = ~std::size_t{0};
  constexpr Sym kConsts = 3;
  Program prog;
  std::vector<PredId> pids;
  std::vector<std::size_t> arity;
  std::vector<std::size_t> key;
  const std::size_t preds = 3 + rng.Below(3);
  for (std::size_t p = 0; p < preds; ++p) {
    arity.push_back(1 + rng.Below(3));
    key.push_back(rng.Chance(1, 2) ? rng.Below(arity.back()) : kUnkeyed);
    pids.push_back(prog.AddPred("p" + std::to_string(p), arity.back()));
  }
  for (Sym c = 0; c < kConsts; ++c) prog.ConstSym("c" + std::to_string(c));
  auto random_const = [&] { return static_cast<Sym>(rng.Below(kConsts)); };

  for (int f = 0; f < 8; ++f) {
    const std::size_t p = rng.Below(preds);
    Atom a{pids[p], {}};
    for (std::size_t i = 0; i < arity[p]; ++i) a.args.push_back(C(random_const()));
    prog.AddFact(std::move(a));
  }
  for (int r = 0; r < 9; ++r) {
    Rule rule;
    std::vector<VarSym> avail;  // bound by the body or an earlier native
    VarSym next_var = 0;
    const std::size_t body_atoms = rng.Chance(1, 8) ? 0 : 1 + rng.Below(2);
    for (std::size_t b = 0; b < body_atoms; ++b) {
      const std::size_t p = rng.Below(preds);
      Atom a{pids[p], {}};
      for (std::size_t i = 0; i < arity[p]; ++i) {
        if (i == key[p] || rng.Chance(1, 5)) {
          a.args.push_back(C(random_const()));
        } else if (!avail.empty() && rng.Chance(1, 2)) {
          a.args.push_back(V(avail[rng.Below(avail.size())]));
        } else {
          a.args.push_back(V(next_var));
          avail.push_back(next_var++);
        }
      }
      rule.body.push_back(std::move(a));
    }
    auto input = [&] {
      return !avail.empty() && rng.Chance(3, 4)
                 ? V(avail[rng.Below(avail.size())])
                 : C(random_const());
    };
    // A fresh output variable, or (a comparison) one already bound.
    auto output = [&]() -> VarSym {
      if (!avail.empty() && rng.Chance(1, 3)) {
        return avail[rng.Below(avail.size())];
      }
      avail.push_back(next_var);
      return next_var++;
    };
    const std::size_t natives = rng.Below(4);
    for (std::size_t k = 0; k < natives; ++k) {
      Native n;
      n.inputs = {input(), input()};
      switch (rng.Below(4)) {
        case 0:
          n.op = Native::Op::kLeq;
          n.name = n.tag = "leq";
          if (rng.Chance(1, 2)) {
            n.width = static_cast<std::uint8_t>(1 + rng.Below(32));
            n.shift = static_cast<std::uint8_t>(rng.Below(33 - n.width));
          }
          break;
        case 1:
          n.op = Native::Op::kMax;
          n.name = n.tag = "max";
          n.output = output();
          if (rng.Chance(1, 2)) {
            n.width = static_cast<std::uint8_t>(1 + rng.Below(32));
          }
          break;
        case 2:
          n.name = n.tag = "differ";
          n.fn = [](std::span<const Sym> in, Sym*) { return in[0] != in[1]; };
          break;
        default:
          n.name = n.tag = "flip";
          n.inputs.pop_back();
          n.fn = [](std::span<const Sym> in, Sym* out) {
            *out = 0xffffffffu - in[0];
            return true;
          };
          n.output = output();
          break;
      }
      rule.natives.push_back(std::move(n));
    }
    const std::size_t hp = rng.Below(preds);
    rule.head.pred = pids[hp];
    for (std::size_t i = 0; i < arity[hp]; ++i) {
      rule.head.args.push_back(!avail.empty() && rng.Chance(2, 3)
                                   ? V(avail[rng.Below(avail.size())])
                                   : C(random_const()));
    }
    prog.AddRule(std::move(rule));
  }
  return prog;
}

// Renders a ground atom by symbol number: derived atoms may hold symbols
// the program never interned (Program::AtomToString would reject them).
std::string Show(const GroundAtom& g) {
  std::string out = "p" + std::to_string(g[0]) + "(";
  for (std::size_t i = 1; i < g.size(); ++i) {
    out += (i > 1 ? ", " : "") + std::to_string(g[i]);
  }
  return out + ")";
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

// Bits [shift, shift + width) of w, computed per component.
Sym FieldOf(Sym w, unsigned shift, unsigned width) {
  return static_cast<Sym>((std::uint64_t{w} >> shift) &
                          ((std::uint64_t{1} << width) - 1));
}

// EvalNative's field kLeq and kMax against a per-component loop, at every
// width 1..32 and, for kLeq, every shift that keeps the field in the word
// (the top field, partial when the width does not divide 32, included).
TEST(NativeFieldTest, FieldOpsMatchAPerComponentLoop) {
  Rng rng(1);
  std::vector<Sym> buf;
  for (unsigned width = 1; width <= 32; ++width) {
    for (int trial = 0; trial < 64; ++trial) {
      const Sym a = static_cast<Sym>(rng.Next());
      Sym b = static_cast<Sym>(rng.Next());
      // Every other trial, b copies some of a's bits, so fields tie.
      if (trial % 2 == 1) {
        const Sym same = static_cast<Sym>(rng.Next());
        b = (a & same) | (b & ~same);
      }
      const auto in = [&](std::size_t i) { return i == 0 ? a : b; };

      Native max;
      max.op = Native::Op::kMax;
      max.width = static_cast<std::uint8_t>(width);
      max.inputs = {C(a), C(b)};
      max.output = 0;
      Sym got = 0;
      ASSERT_TRUE(EvalNative(max, in, buf, &got));
      Sym want = 0;
      for (unsigned s = 0; s < 32; s += width) {
        const unsigned w = std::min(width, 32 - s);
        want |= std::max(FieldOf(a, s, w), FieldOf(b, s, w)) << s;
      }
      EXPECT_EQ(got, want) << "max width " << width << " a " << a << " b "
                           << b;

      for (unsigned shift = 0; shift < 32; ++shift) {
        Native leq;
        leq.op = Native::Op::kLeq;
        leq.shift = static_cast<std::uint8_t>(shift);
        leq.width = static_cast<std::uint8_t>(std::min(width, 32 - shift));
        leq.inputs = {C(a), C(b)};
        EXPECT_EQ(EvalNative(leq, in, buf, nullptr),
                  FieldOf(a, shift, leq.width) <= FieldOf(b, shift, leq.width))
            << "leq shift " << shift << " width " << int{leq.width}
            << " a " << a << " b " << b;
      }
    }
  }
}

class DatalogDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatalogDifferentialTest, WorklistMatchesNaiveReference) {
  Rng rng(GetParam());
  Program prog = RandomDatalog(rng, /*preds=*/4, /*consts=*/3, /*rules=*/6);

  std::set<GroundAtom> reference = NaiveEval(prog);
  EXPECT_EQ(Materialize(prog, Eval(prog)), reference) << prog.ToString();
}

TEST_P(DatalogDifferentialTest, CacheAtLargeKMatchesStandard) {
  Rng rng(GetParam() + 500);
  Program prog = RandomDatalog(rng, 3, 2, 4);
  std::set<GroundAtom> reference = NaiveEval(prog);
  const int k = static_cast<int>(reference.size()) + 2;
  // Every derivable ground atom must be cache-derivable at large k, and
  // nothing else.
  Database db = Eval(prog);
  for (PredId p = 0; p < prog.num_preds(); ++p) {
    if (prog.pred(p).arity != 0) continue;  // probe nullary atoms only
    Atom goal{p, {}};
    GroundAtom g{p};
    const bool standard = reference.count(g) > 0;
    CacheQueryOptions opts;
    opts.max_states = 300'000;
    CacheQueryResult r = CacheQuery(prog, goal, k, opts);
    if (r.aborted) continue;
    EXPECT_EQ(r.derivable, standard) << prog.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DatalogDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 30));

class DatalogDifferentialNativeTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatalogDifferentialNativeTest, NativesAndDispatchMatchNaiveReference) {
  Rng rng(GetParam());
  const Program prog = RandomNativeDatalog(rng);
  const std::set<GroundAtom> reference = NaiveEval(prog);
  // Full fixpoint, with and without join indexes.
  EXPECT_EQ(Materialize(prog, Eval(prog)), reference) << prog.ToString();
  EvalOptions scan;
  scan.engine.use_index = false;
  EXPECT_EQ(Materialize(prog, Eval(prog, nullptr, scan)), reference)
      << prog.ToString();
  // Early-exit solves on one reused engine: every derivable atom, and
  // ground atoms over the interned constants that may not be.
  Engine engine;
  for (const GroundAtom& g : reference) {
    Atom goal{g[0], {}};
    for (std::size_t i = 1; i < g.size(); ++i) goal.args.push_back(C(g[i]));
    EXPECT_TRUE(engine.Solve(prog, goal)) << Show(g) << "\n"
                                          << prog.ToString();
  }
  Rng probe_rng(GetParam() + 991);
  for (int probe = 0; probe < 6; ++probe) {
    const PredId p = static_cast<PredId>(probe_rng.Below(prog.num_preds()));
    Atom goal{p, {}};
    GroundAtom g{p};
    for (std::size_t i = 0; i < prog.pred(p).arity; ++i) {
      const Sym c = static_cast<Sym>(probe_rng.Below(prog.num_consts()));
      goal.args.push_back(C(c));
      g.push_back(c);
    }
    EXPECT_EQ(engine.Solve(prog, goal), reference.count(g) > 0)
        << Show(g) << "\n" << prog.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DatalogDifferentialNativeTest,
                         ::testing::Range<std::uint64_t>(1, 241));

}  // namespace
}  // namespace rapar::dl
