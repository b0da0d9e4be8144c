// Rule-level static checks over datalog::Rule (rapar_dlopt):
// canonicalisation & duplicate detection — rules equal up to a renaming of
// their (rule-local) variables are interchangeable; makeP can emit
// duplicates when distinct CFA edges compile to the same rule (e.g. two
// nop edges between the same locations). Natives compare by (op, field
// spec, tag, inputs, output) and only when the tag is non-empty — an empty
// tag is an unknown function and never matches (conservative).
//
// Range restriction is checked once, by dl::UnboundVars (datalog/ast.h):
// the engine's ValidateProgram rejects an unsafe rule with it, and
// AnalyzeDlProgram reports each unbound variable as RA025.
#ifndef RAPAR_DLOPT_RULE_CHECKS_H_
#define RAPAR_DLOPT_RULE_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace rapar::dlopt {

// A canonical form as a binary string: variables renumbered in
// first-occurrence order (head, then body, then natives). Two rules with
// equal keys are duplicates — provided every native carries a non-empty
// tag; a rule with an untagged native gets a unique key and never
// collides.
std::string CanonicalRuleKey(const dl::Rule& rule);
// Appends CanonicalRuleKey(rule) to `key`; `renumber` is scratch space
// the caller may reuse across calls.
void AppendCanonicalRuleKey(const dl::Rule& rule, std::string& key,
                            std::vector<std::uint32_t>& renumber);

}  // namespace rapar::dlopt

#endif  // RAPAR_DLOPT_RULE_CHECKS_H_
