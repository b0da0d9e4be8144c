// Datalog abstract syntax: terms, atoms, rules, programs.
//
// The paper's upper bound (§4) encodes safety verification into query
// evaluation for (linear / Cache) Datalog. This module is a complete,
// self-contained Datalog implementation: no external solver is required.
//
// Extensions over textbook Datalog:
//   * native constraints/functions ("builtins") evaluated during rule
//     application — used by the makeP encoding for view joins and
//     timestamp comparisons without materialising huge EDB relations;
//   * programs carry symbol tables so dumps are readable .dl text.
#ifndef RAPAR_DATALOG_AST_H_
#define RAPAR_DATALOG_AST_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"

namespace rapar::dl {

// Interned constant symbol.
using Sym = std::uint32_t;
// Predicate identifier.
using PredId = std::uint32_t;
// Rule-local variable (dense, 0-based within each rule).
using VarSym = std::uint32_t;

struct Term {
  enum class Kind { kConst, kVar };
  Kind kind = Kind::kConst;
  std::uint32_t val = 0;

  bool operator==(const Term& o) const {
    return kind == o.kind && val == o.val;
  }
};

// Term factories.
inline Term C(Sym s) { return Term{Term::Kind::kConst, s}; }
inline Term V(VarSym v) { return Term{Term::Kind::kVar, v}; }

struct Atom {
  PredId pred = 0;
  std::vector<Term> args;

  bool operator==(const Atom& o) const {
    return pred == o.pred && args == o.args;
  }
};

// A native constraint / function evaluated during rule application, after
// its input terms are ground. If `output` is set, the native computes a
// binding for that variable; otherwise it is a boolean check.
struct Native {
  // What the native computes. The closed ops are evaluated inline over
  // the engine's binding frame; kCall goes through `fn`.
  enum class Op : std::uint8_t {
    kCall,  // fn(inputs, &out)
    kLeq,   // check: inputs[0] <= inputs[1]; no output
    kMax,   // output = max(inputs[0], inputs[1])
  };
  Op op = Op::kCall;
  std::string name;
  // Semantic identity token: two natives with equal `op`, `tag`, `inputs`
  // and `output` compute the same function. Emitters must make the tag
  // capture everything `fn` closes over (e.g. "assume:r0==1", not just
  // "assume"); an empty tag means "unknown function" and compares equal to
  // nothing, which keeps rule dedup/subsumption (src/dlopt/) conservative.
  std::string tag;
  std::vector<Term> inputs;
  std::optional<VarSym> output;
  // kCall only. Returns false to reject the binding. If `output` is set,
  // writes the computed symbol to *out.
  std::function<bool(std::span<const Sym>, Sym* out)> fn;
};

// Evaluates native `n` — the one definition of every op, shared by the
// engine, the Cache-Datalog solver and the test reference evaluators.
// `in(i)` yields the ground value of input i; `buf` collects a kCall's
// inputs and is reused across calls, so no op allocates once it has grown.
// Returns false to reject the binding; a native with an output writes it
// to *out.
template <typename In>
bool EvalNative(const Native& n, const In& in, std::vector<Sym>& buf,
                Sym* out) {
  switch (n.op) {
    case Native::Op::kLeq:
      return in(0) <= in(1);
    case Native::Op::kMax:
      *out = std::max(in(0), in(1));
      return true;
    case Native::Op::kCall:
      break;
  }
  buf.clear();
  for (std::size_t i = 0; i < n.inputs.size(); ++i) buf.push_back(in(i));
  return n.fn(buf, out);
}

struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Native> natives;

  bool IsFact() const { return body.empty() && natives.empty(); }
};

// One more than the largest variable of `rule` (0 for a ground rule): the
// size of its binding frame.
std::size_t NumVars(const Rule& rule);

struct PredInfo {
  std::string name;
  std::size_t arity = 0;
};

// A Datalog program: predicates, interned constants, rules (facts are
// body-less rules).
class Program {
 public:
  PredId AddPred(const std::string& name, std::size_t arity) {
    preds_.push_back(PredInfo{name, arity});
    return static_cast<PredId>(preds_.size() - 1);
  }
  // Interns a named constant.
  Sym ConstSym(const std::string& name) { return consts_.Intern(name); }
  // Interns an integer constant.
  Sym IntSym(long long v) { return consts_.Intern(std::to_string(v)); }

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }
  void AddFact(Atom atom) { rules_.push_back(Rule{std::move(atom), {}, {}}); }
  // Replaces the rule list wholesale; predicate and constant tables are
  // untouched. Used by the dlopt transforms, which rewrite rules over the
  // original symbol numbering.
  void SetRules(std::vector<Rule> rules) { rules_ = std::move(rules); }
  // Moves the rule list out, leaving the program with no rules and its
  // tables intact (the dlopt transforms rewrite rules in place, then hand
  // the survivors back through SetRules).
  std::vector<Rule> TakeRules() { return std::exchange(rules_, {}); }

  std::size_t num_preds() const { return preds_.size(); }
  const PredInfo& pred(PredId p) const { return preds_[p]; }
  const std::vector<Rule>& rules() const { return rules_; }
  std::size_t num_consts() const { return consts_.size(); }
  const std::string& const_name(Sym s) const { return consts_.Get(s); }

  // True if every rule has at most one IDB (derived-predicate) atom in its
  // body: the linear Datalog fragment whose query evaluation is PSPACE
  // (Gottlob & Papadimitriou; §4).
  bool IsLinear() const;
  // Predicates appearing in some rule head.
  std::vector<bool> IdbPreds() const;

  // Number of distinct rules + facts; |Prog| in the complexity statements.
  std::size_t size() const { return rules_.size(); }

  std::string AtomToString(const Atom& atom) const;
  std::string RuleToString(const Rule& rule) const;
  std::string ToString() const;

 private:
  std::vector<PredInfo> preds_;
  Interner<std::string> consts_;
  std::vector<Rule> rules_;
};

// Input validation shared by every evaluator (the engine's Query, Eval and
// Engine::Solve, and the Cache-Datalog solver). Each throws
// std::invalid_argument, also in NDEBUG builds, where an unchecked input
// would otherwise be undefined behavior.
//
// ValidateProgram: every atom matches its predicate's declared arity (the
// joins unify positionally); every rule is safe — each native input is
// bound by the body or an earlier native's output (natives run after the
// body join, in order) and each head variable by the body or some native
// output; and every native is well-formed for its op (kLeq: two inputs,
// no output; kMax: two inputs and an output; kCall: a function).
void ValidateProgram(const Program& prog);
// ValidateGoal: the goal is ground, on a declared predicate, with that
// predicate's arity.
void ValidateGoal(const Program& prog, const Atom& goal);

}  // namespace rapar::dl

#endif  // RAPAR_DATALOG_AST_H_
