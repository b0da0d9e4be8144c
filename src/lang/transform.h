// Program transformations shared by the verifiers.
#ifndef RAPAR_LANG_TRANSFORM_H_
#define RAPAR_LANG_TRANSFORM_H_

#include <vector>

#include "lang/program.h"

namespace rapar {

// Rewrites shared-variable ids throughout `stmt`: the variable with old id
// i becomes `mapping[i]`. Used when merging per-program variable tables
// into one system-wide table.
StmtPtr RemapVars(const StmtPtr& stmt, const std::vector<VarId>& mapping);

// Merges the programs' variable tables by name into one system-wide table,
// in order of first appearance (programs in order, each table in id
// order), and returns the programs rewritten onto it; each carries the
// merged table.
std::vector<Program> MergeVarTables(
    const std::vector<const Program*>& programs);

// The Message-Generation reduction of §4.1: replaces every `assert false`
// by `goal_var := goal_value` through a dedicated register. `goal_var` must
// already be present in the program's variable table; `goal_value` must be
// in the domain. Returns the rewritten program (a fresh register named
// `__goal` is appended if any assert is present).
struct GoalRewrite {
  Program program;
  bool had_assert = false;
};
GoalRewrite RewriteAssertToGoalStore(const Program& program, VarId goal_var,
                                     Value goal_value);

// True if the statement tree contains an `assert false`.
bool ContainsAssert(const StmtPtr& stmt);

}  // namespace rapar

#endif  // RAPAR_LANG_TRANSFORM_H_
