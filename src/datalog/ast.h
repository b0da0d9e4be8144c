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

#include <array>
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
    kLeq,   // check: field of inputs[0] <= field of inputs[1]; no output
    kMax,   // output = field-wise max(inputs[0], inputs[1])
  };
  Op op = Op::kCall;
  // kLeq/kMax field spec. kLeq compares bits [shift, shift + width) of its
  // inputs as unsigned numbers. kMax (shift 0) cuts each input into
  // width-bit fields from bit 0 up, the top one partial when width does not
  // divide 32, and takes the larger value field by field. The default, the
  // whole word, is a plain comparison and maximum. makeP packs the
  // timestamps of a view into such fields (encoding/makep.h).
  std::uint8_t shift = 0;
  std::uint8_t width = 32;
  // What the printers show and ValidateProgram's messages name. It does
  // not identify the function: makeP names every expression check
  // "assume".
  std::string name;
  std::vector<Term> inputs;
  std::optional<VarSym> output;
  // kCall only. Returns false to reject the binding. If `output` is set,
  // writes the computed symbol to *out.
  std::function<bool(std::span<const Sym>, Sym* out)> fn;
};

// The low `width` bits set (width 1..32).
inline Sym FieldMask(unsigned width) { return 0xffffffffu >> (32 - width); }

// Per width 1..32, the top bit of every width-bit field of a word when the
// fields are laid out from bit 0 to past bit 31: the top field, partial in
// 32 bits, is a whole one in 64.
inline constexpr std::array<std::uint64_t, 33> kFieldTops = [] {
  std::array<std::uint64_t, 33> tops{};
  for (unsigned w = 1; w <= 32; ++w) {
    for (unsigned s = 0; s < 32; s += w) {
      tops[w] |= std::uint64_t{1} << (s + w - 1);
    }
  }
  return tops;
}();

// kMax's field-wise maximum of a and b over width-bit fields. In 64 bits,
// where the partial top field is a whole one, every field is compared at
// once (SWAR): the top bit of field f of (a | H) - (b & ~H) is set when
// a's low bits in f are >= b's, with no borrow across fields; the fields'
// own top bits decide where they differ. Each field where a >= b is then
// widened to a full mask.
inline Sym FieldMax(Sym a, Sym b, unsigned width) {
  const std::uint64_t h = kFieldTops[width];
  const std::uint64_t x = a;
  const std::uint64_t y = b;
  const std::uint64_t low_ge = (x | h) - (y & ~h);
  const std::uint64_t ge = ((x & ~y) | (~(x ^ y) & low_ge)) & h;
  const std::uint64_t mask = (ge - (ge >> (width - 1))) | ge;
  return static_cast<Sym>((x & mask) | (y & ~mask));
}

// Evaluates native `n` — the one definition of every op, shared by the
// engine, the Cache-Datalog solver and the test reference evaluators.
// `in(i)` yields the ground value of input i; `buf` collects a kCall's
// inputs and is reused across calls, so no op allocates once it has grown.
// Returns false to reject the binding; a native with an output writes it
// to *out. The field spec must be valid (ValidateProgram).
template <typename In>
bool EvalNative(const Native& n, const In& in, std::vector<Sym>& buf,
                Sym* out) {
  switch (n.op) {
    case Native::Op::kLeq: {
      const Sym m = FieldMask(n.width);
      return ((in(0) >> n.shift) & m) <= ((in(1) >> n.shift) & m);
    }
    case Native::Op::kMax:
      *out = FieldMax(in(0), in(1), n.width);
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

// How a program packs a view — k abstract timestamps (§4.1) — into
// argument words: each timestamp takes `bits` bits, a word holds PerWord()
// of them, and timestamp y sits at bit (y % PerWord()) * bits of word
// y / PerWord(). A predicate declared with a view carries the Words() view
// words as its last arguments. Evaluation never reads the layout; the
// printers (Program::AtomToString, RuleToString) use it to show each view
// word as its timestamps. `components` == 0: the program has no views.
struct ViewLayout {
  std::uint32_t components = 0;
  std::uint32_t bits = 32;

  std::uint32_t PerWord() const { return 32 / bits; }
  std::uint32_t Words() const {
    return (components + PerWord() - 1) / PerWord();
  }
};

struct PredInfo {
  std::string name;
  std::size_t arity = 0;
  // The last ViewLayout::Words() arguments are a packed view.
  bool view = false;
};

// A Datalog program: predicates, interned constants, rules (facts are
// body-less rules).
class Program {
 public:
  PredId AddPred(const std::string& name, std::size_t arity,
                 bool view = false) {
    preds_.push_back(PredInfo{name, arity, view});
    return static_cast<PredId>(preds_.size() - 1);
  }
  void SetViewLayout(ViewLayout layout) { layout_ = layout; }
  const ViewLayout& view_layout() const { return layout_; }
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

  // Printers. A view word prints as its timestamps (a variable word X3 as
  // X3.0, X3.1, ...: its fields), and any other constant outside the table
  // as #N.
  std::string AtomToString(const Atom& atom) const;
  std::string RuleToString(const Rule& rule) const;
  std::string ToString() const;
  // Arity as printed: a view counts as its timestamps, not its words.
  std::size_t PrintedArity(PredId p) const;

 private:
  std::string ConstToString(Sym s) const;
  std::string TermToString(const Term& t) const;
  std::string NativeInputToString(const Native& n, const Term& t) const;

  std::vector<PredInfo> preds_;
  Interner<std::string> consts_;
  std::vector<Rule> rules_;
  ViewLayout layout_;
};

// Range restriction (rule safety): each native input must be bound by the
// body or an earlier native's output (natives run after the body join, in
// order) and each head variable by the body or some native output. An
// UnboundVar is one variable occurrence that breaks it.
struct UnboundVar {
  std::size_t rule_index = 0;
  // "input X2 of native 'leq' is not bound by the body or an earlier
  // native", "head variable X3 is not bound by the body or a native
  // output".
  std::string detail;
};

// Every unbound native input and head variable of `prog`, in rule order.
// Allocates nothing when there is none. ValidateProgram throws on the
// first; dlopt's AnalyzeDlProgram reports each as RA025.
std::vector<UnboundVar> UnboundVars(const Program& prog);

// Input validation shared by every evaluator (the engine's Query, Eval and
// Engine::Solve, and the Cache-Datalog solver). Each throws
// std::invalid_argument, also in NDEBUG builds, where an unchecked input
// would otherwise be undefined behavior.
//
// ValidateProgram: every atom matches its predicate's declared arity (the
// joins unify positionally); every native is well-formed for its op
// (kLeq: two inputs, no output; kMax: two inputs and an output; kCall: a
// function) with a field spec inside the 32-bit word (width 1..32,
// shift + width <= 32, and shift 0 on a kMax); and every rule is safe
// (UnboundVars is empty; the message names the first unbound variable).
void ValidateProgram(const Program& prog);
// ValidateGoal: the goal is ground, on a declared predicate, with that
// predicate's arity.
void ValidateGoal(const Program& prog, const Atom& goal);

}  // namespace rapar::dl

#endif  // RAPAR_DATALOG_AST_H_
