#include "dlopt/rule_checks.h"

#include <cstdint>

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

}  // namespace rapar::dlopt
