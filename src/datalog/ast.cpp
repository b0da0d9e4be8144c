#include "datalog/ast.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"

namespace rapar::dl {

std::size_t NumVars(const Rule& rule) {
  std::size_t mx = 0;
  auto scan_term = [&](const Term& t) {
    if (t.kind == Term::Kind::kVar && t.val + 1 > mx) mx = t.val + 1;
  };
  for (const Term& t : rule.head.args) scan_term(t);
  for (const Atom& a : rule.body) {
    for (const Term& t : a.args) scan_term(t);
  }
  for (const Native& n : rule.natives) {
    for (const Term& t : n.inputs) scan_term(t);
    if (n.output.has_value() && *n.output + 1 > mx) mx = *n.output + 1;
  }
  return mx;
}

std::vector<bool> Program::IdbPreds() const {
  std::vector<bool> idb(preds_.size(), false);
  for (const Rule& r : rules_) {
    if (!r.IsFact()) idb[r.head.pred] = true;
  }
  return idb;
}

bool Program::IsLinear() const {
  // IDB status: a predicate derived by any non-fact rule. Facts contribute
  // EDB tuples even to predicates that also have rules; for linearity we
  // use the conventional definition: a predicate is IDB if it occurs in
  // any rule head with a non-empty body.
  std::vector<bool> idb = IdbPreds();
  for (const Rule& r : rules_) {
    int idb_atoms = 0;
    for (const Atom& a : r.body) {
      if (idb[a.pred]) ++idb_atoms;
    }
    if (idb_atoms > 1) return false;
  }
  return true;
}

std::size_t Program::PrintedArity(PredId p) const {
  const PredInfo& info = preds_[p];
  return info.view ? info.arity - layout_.Words() + layout_.components
                   : info.arity;
}

std::string Program::ConstToString(Sym s) const {
  return s < consts_.size() ? consts_.Get(s) : StrCat("#", s);
}

std::string Program::TermToString(const Term& t) const {
  return t.kind == Term::Kind::kConst ? ConstToString(t.val)
                                      : StrCat("X", t.val);
}

std::string Program::AtomToString(const Atom& atom) const {
  const PredInfo& info = preds_[atom.pred];
  // Word w of the view is argument first_word + w.
  const std::size_t words = info.view ? layout_.Words() : 0;
  const std::size_t first_word = info.arity - words;
  std::string out = info.name + "(";
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = atom.args[i];
    const std::size_t w = i - first_word;
    if (i < first_word || w >= words) {
      out += TermToString(t);
      continue;
    }
    const std::uint32_t per = layout_.PerWord();
    const std::uint32_t fields =
        std::min<std::uint32_t>(per, layout_.components - w * per);
    for (std::uint32_t f = 0; f < fields; ++f) {
      if (f > 0) out += ", ";
      out += t.kind == Term::Kind::kConst
                 ? ConstToString((t.val >> (f * layout_.bits)) &
                                 FieldMask(layout_.bits))
                 : StrCat("X", t.val, ".", f);
    }
  }
  return out + ")";
}

std::string Program::NativeInputToString(const Native& n,
                                         const Term& t) const {
  // Whole-word natives, and field specs that ValidateProgram rejects,
  // print their inputs as plain terms.
  if (n.width == 0 || n.width >= 32 || n.shift + n.width > 32) {
    return TermToString(t);
  }
  const Sym mask = FieldMask(n.width);
  if (n.op == Native::Op::kLeq) {
    // One field: a variable's field index, or a constant's field value.
    if (t.kind == Term::Kind::kVar) {
      return n.shift % n.width == 0 ? StrCat("X", t.val, ".", n.shift / n.width)
                                    : StrCat("X", t.val, "@", n.shift);
    }
    return ConstToString((t.val >> n.shift) & mask);
  }
  // A field-wise op on whole words: a constant word prints its nonzero
  // fields, {index:value, ...}.
  if (t.kind == Term::Kind::kVar) return TermToString(t);
  std::string out = "{";
  for (unsigned f = 0; f * n.width < 32; ++f) {
    const Sym v = (t.val >> (f * n.width)) & mask;
    if (v == 0) continue;
    if (out.size() > 1) out += ",";
    out += StrCat(f, ":", ConstToString(v));
  }
  return out + "}";
}

std::string Program::RuleToString(const Rule& rule) const {
  std::string out = AtomToString(rule.head);
  if (rule.IsFact()) return out + ".";
  out += " :- ";
  bool first = true;
  for (const Atom& a : rule.body) {
    if (!first) out += ", ";
    out += AtomToString(a);
    first = false;
  }
  for (const Native& n : rule.natives) {
    if (!first) out += ", ";
    out += n.name + "[";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (i > 0) out += ",";
      out += NativeInputToString(n, n.inputs[i]);
    }
    out += "]";
    if (n.output.has_value()) out += StrCat("->X", *n.output);
    first = false;
  }
  return out + ".";
}

std::string Program::ToString() const {
  std::string out;
  for (std::size_t p = 0; p < preds_.size(); ++p) {
    out += StrCat(".decl ", preds_[p].name, "/",
                  PrintedArity(static_cast<PredId>(p)), "\n");
  }
  for (const Rule& r : rules_) out += RuleToString(r) + "\n";
  return out;
}

void ValidateGoal(const Program& prog, const Atom& goal) {
  if (goal.pred >= prog.num_preds()) {
    throw std::invalid_argument(
        StrCat("datalog goal: unknown predicate id ", goal.pred));
  }
  const PredInfo& info = prog.pred(goal.pred);
  if (goal.args.size() != info.arity) {
    throw std::invalid_argument(
        StrCat("datalog goal: arity mismatch for '", info.name, "': got ",
               goal.args.size(), " args, declared ", info.arity));
  }
  for (const Term& t : goal.args) {
    if (t.kind != Term::Kind::kConst) {
      throw std::invalid_argument(StrCat("datalog goal: atom on '", info.name,
                                         "' is not ground (has a variable)"));
    }
  }
}

namespace {

// True if `v` is bound before native `upto` of `rule` runs: by a body atom
// or by the output of a native before it. A scan, so that checking a safe
// program allocates nothing.
bool BoundBefore(const Rule& rule, VarSym v, std::size_t upto) {
  for (const Atom& a : rule.body) {
    for (const Term& t : a.args) {
      if (t.kind == Term::Kind::kVar && t.val == v) return true;
    }
  }
  for (std::size_t i = 0; i < upto; ++i) {
    if (rule.natives[i].output == v) return true;
  }
  return false;
}

}  // namespace

std::vector<UnboundVar> UnboundVars(const Program& prog) {
  std::vector<UnboundVar> out;
  for (std::size_t ri = 0; ri < prog.rules().size(); ++ri) {
    const Rule& rule = prog.rules()[ri];
    for (std::size_t ni = 0; ni < rule.natives.size(); ++ni) {
      const Native& n = rule.natives[ni];
      for (const Term& t : n.inputs) {
        if (t.kind == Term::Kind::kVar && !BoundBefore(rule, t.val, ni)) {
          out.push_back({ri, StrCat("input X", t.val, " of native '", n.name,
                                    "' is not bound by the body or an "
                                    "earlier native")});
        }
      }
    }
    for (const Term& t : rule.head.args) {
      if (t.kind == Term::Kind::kVar &&
          !BoundBefore(rule, t.val, rule.natives.size())) {
        out.push_back({ri, StrCat("head variable X", t.val,
                                  " is not bound by the body or a native "
                                  "output")});
      }
    }
  }
  return out;
}

void ValidateProgram(const Program& prog) {
  auto fail = [&](std::size_t ri, const std::string& why) {
    throw std::invalid_argument(StrCat("datalog rule #", ri, " is unsafe (",
                                       why, "): ",
                                       prog.RuleToString(prog.rules()[ri])));
  };
  for (std::size_t ri = 0; ri < prog.rules().size(); ++ri) {
    const Rule& r = prog.rules()[ri];
    auto check_arity = [&](const Atom& a) {
      if (a.pred >= prog.num_preds()) fail(ri, "unknown predicate id");
      if (a.args.size() != prog.pred(a.pred).arity) {
        fail(ri, "arity mismatch on '" + prog.pred(a.pred).name + "'");
      }
    };
    check_arity(r.head);
    for (const Atom& a : r.body) check_arity(a);
    for (const Native& n : r.natives) {
      if (n.width == 0 || n.width > 32 || n.shift + n.width > 32) {
        fail(ri, StrCat("native '", n.name, "' reads bits [", int{n.shift},
                        ", ", n.shift + n.width,
                        "), not a field of the 32-bit word"));
      }
      if (n.op == Native::Op::kMax && n.shift != 0) {
        fail(ri, "native '" + n.name + "' is a field-wise max: shift 0");
      }
      const bool two_inputs = n.inputs.size() == 2;
      switch (n.op) {
        case Native::Op::kLeq:
          if (!two_inputs || n.output.has_value()) {
            fail(ri, "native '" + n.name +
                         "' is a leq check: two inputs and no output");
          }
          break;
        case Native::Op::kMax:
          if (!two_inputs || !n.output.has_value()) {
            fail(ri,
                 "native '" + n.name + "' is a max: two inputs and an output");
          }
          break;
        case Native::Op::kCall:
          if (!n.fn) fail(ri, "native '" + n.name + "' calls no function");
          break;
      }
    }
  }
  const std::vector<UnboundVar> unbound = UnboundVars(prog);
  if (!unbound.empty()) {
    fail(unbound.front().rule_index, unbound.front().detail);
  }
}

}  // namespace rapar::dl
