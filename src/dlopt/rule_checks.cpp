#include "dlopt/rule_checks.h"

#include <algorithm>
#include <cstdint>

#include "common/strings.h"

namespace rapar::dlopt {

namespace {

void AppendU32(std::string& key, std::uint32_t v) {
  key.append(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

std::string CanonicalRuleKey(const dl::Rule& rule) {
  std::string key;
  std::vector<std::uint32_t> renumber;
  AppendCanonicalRuleKey(rule, key, renumber);
  return key;
}

void AppendCanonicalRuleKey(const dl::Rule& rule, std::string& key,
                            std::vector<std::uint32_t>& renumber) {
  // Fixed-width binary fields: counts and ids as 4 bytes, each term as a
  // kind byte plus 4 bytes, natives as op, shift and width bytes and a
  // length-prefixed tag.
  renumber.assign(dl::NumVars(rule), UINT32_MAX);
  std::uint32_t next = 0;
  auto term = [&](const dl::Term& t) {
    if (t.kind == dl::Term::Kind::kConst) {
      key.push_back('c');
      AppendU32(key, t.val);
      return;
    }
    if (renumber[t.val] == UINT32_MAX) renumber[t.val] = next++;
    key.push_back('v');
    AppendU32(key, renumber[t.val]);
  };
  auto atom = [&](const dl::Atom& a) {
    AppendU32(key, a.pred);
    AppendU32(key, static_cast<std::uint32_t>(a.args.size()));
    for (const dl::Term& t : a.args) term(t);
  };
  atom(rule.head);
  AppendU32(key, static_cast<std::uint32_t>(rule.body.size()));
  for (const dl::Atom& a : rule.body) atom(a);
  AppendU32(key, static_cast<std::uint32_t>(rule.natives.size()));
  for (const dl::Native& n : rule.natives) {
    if (n.tag.empty()) {
      // Unknown function: a key that collides with nothing (the native's
      // own address is unique per rule instance).
      key.push_back('?');
      const auto addr = reinterpret_cast<std::uintptr_t>(&n);
      key.append(reinterpret_cast<const char*>(&addr), sizeof addr);
      continue;
    }
    key.push_back('[');
    key.push_back(static_cast<char>(n.op));
    key.push_back(static_cast<char>(n.shift));
    key.push_back(static_cast<char>(n.width));
    AppendU32(key, static_cast<std::uint32_t>(n.tag.size()));
    key += n.tag;
    AppendU32(key, static_cast<std::uint32_t>(n.inputs.size()));
    for (const dl::Term& t : n.inputs) term(t);
    if (n.output.has_value()) {
      key.push_back('>');
      term(dl::V(*n.output));
    } else {
      key.push_back('.');
    }
  }
}

bool SubsumptionMatcher::MatchTerm(const dl::Term& g, const dl::Term& s) {
  if (g.kind == dl::Term::Kind::kConst) {
    return s.kind == dl::Term::Kind::kConst && s.val == g.val;
  }
  if (bound_[g.val]) return map_[g.val] == s;
  bound_[g.val] = true;
  map_[g.val] = s;
  trail_.push_back(g.val);
  return true;
}

bool SubsumptionMatcher::MatchAtom(const dl::Atom& g, const dl::Atom& s) {
  if (g.pred != s.pred || g.args.size() != s.args.size()) return false;
  for (std::size_t i = 0; i < g.args.size(); ++i) {
    if (!MatchTerm(g.args[i], s.args[i])) return false;
  }
  return true;
}

bool SubsumptionMatcher::MatchNative(const dl::Native& g,
                                     const dl::Native& s) {
  if (g.tag.empty() || g.op != s.op || g.shift != s.shift ||
      g.width != s.width || g.tag != s.tag) {
    return false;
  }
  if (g.inputs.size() != s.inputs.size()) return false;
  if (g.output.has_value() != s.output.has_value()) return false;
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    if (!MatchTerm(g.inputs[i], s.inputs[i])) return false;
  }
  if (g.output.has_value() && !MatchTerm(dl::V(*g.output), dl::V(*s.output))) {
    return false;
  }
  return true;
}

void SubsumptionMatcher::Undo(std::size_t mark) {
  while (trail_.size() > mark) {
    bound_[trail_.back()] = false;
    trail_.pop_back();
  }
}

// θ(body(general)) ⊆ body(specific), as sets: each general atom maps to
// *some* specific atom (reuse allowed).
bool SubsumptionMatcher::Body(std::size_t at) {
  if (at == general_->body.size()) return Natives(0);
  if (--budget_ < 0) return false;
  for (const dl::Atom& cand : specific_->body) {
    const std::size_t mark = trail_.size();
    if (MatchAtom(general_->body[at], cand) && Body(at + 1)) return true;
    Undo(mark);
  }
  return false;
}

bool SubsumptionMatcher::Natives(std::size_t at) {
  if (at == general_->natives.size()) return true;
  if (--budget_ < 0) return false;
  for (const dl::Native& cand : specific_->natives) {
    const std::size_t mark = trail_.size();
    if (MatchNative(general_->natives[at], cand) && Natives(at + 1)) {
      return true;
    }
    Undo(mark);
  }
  return false;
}

bool SubsumptionMatcher::Subsumes(const dl::Rule& general,
                                  const dl::Rule& specific) {
  // A rule with an unknown (untagged) native cannot be proved harmless in
  // either role.
  for (const dl::Native& n : general.natives) {
    if (n.tag.empty()) return false;
  }
  if (general.body.size() > specific.body.size()) return false;
  if (general.natives.size() > specific.natives.size()) return false;
  general_ = &general;
  specific_ = &specific;
  budget_ = kBudget;
  const std::size_t vars = dl::NumVars(general);
  if (map_.size() < vars) {
    map_.resize(vars);
    bound_.resize(vars);
  }
  std::fill(bound_.begin(), bound_.begin() + static_cast<long>(vars), false);
  trail_.clear();
  if (!MatchAtom(general.head, specific.head)) return false;
  return Body(0);
}

bool Subsumes(const dl::Rule& general, const dl::Rule& specific) {
  SubsumptionMatcher matcher;
  return matcher.Subsumes(general, specific);
}

std::vector<RangeRestrictionViolation> ValidateRangeRestriction(
    const dl::Program& prog) {
  std::vector<RangeRestrictionViolation> out;
  for (std::size_t ri = 0; ri < prog.rules().size(); ++ri) {
    const dl::Rule& rule = prog.rules()[ri];
    std::vector<bool> bound(dl::NumVars(rule), false);
    for (const dl::Atom& a : rule.body) {
      for (const dl::Term& t : a.args) {
        if (t.kind == dl::Term::Kind::kVar) bound[t.val] = true;
      }
    }
    for (const dl::Native& n : rule.natives) {
      for (const dl::Term& t : n.inputs) {
        if (t.kind == dl::Term::Kind::kVar && !bound[t.val]) {
          out.push_back({ri, StrCat("input X", t.val, " of native '",
                                    n.name,
                                    "' is not bound by the body or an "
                                    "earlier native")});
        }
      }
      if (n.output.has_value()) bound[*n.output] = true;
    }
    for (const dl::Term& t : rule.head.args) {
      if (t.kind == dl::Term::Kind::kVar && !bound[t.val]) {
        out.push_back(
            {ri, StrCat("head variable X", t.val,
                        " is not bound by the body or a native output")});
      }
    }
  }
  return out;
}

}  // namespace rapar::dlopt
