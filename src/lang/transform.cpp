#include "lang/transform.h"

#include <cassert>

namespace rapar {

StmtPtr RemapVars(const StmtPtr& stmt, const std::vector<VarId>& mapping) {
  assert(stmt != nullptr);
  auto remap = [&](VarId v) {
    assert(v.index() < mapping.size());
    return mapping[v.index()];
  };
  // Rebuilt nodes keep their source positions so diagnostics on unified
  // system programs still point into the original text.
  switch (stmt->kind()) {
    case StmtKind::kLoad:
      return WithLoc(SLoad(stmt->reg(), remap(stmt->var())), stmt->loc());
    case StmtKind::kStore:
      return WithLoc(SStore(remap(stmt->var()), stmt->reg()), stmt->loc());
    case StmtKind::kCas:
      return WithLoc(SCas(remap(stmt->var()), stmt->reg(), stmt->reg2()),
                     stmt->loc());
    case StmtKind::kSeq:
      return WithLoc(SSeq(RemapVars(stmt->children()[0], mapping),
                          RemapVars(stmt->children()[1], mapping)),
                     stmt->loc());
    case StmtKind::kChoice:
      return WithLoc(SChoice(RemapVars(stmt->children()[0], mapping),
                             RemapVars(stmt->children()[1], mapping)),
                     stmt->loc());
    case StmtKind::kStar:
      return WithLoc(SStar(RemapVars(stmt->children()[0], mapping)),
                     stmt->loc());
    default:
      return stmt;
  }
}

std::vector<Program> MergeVarTables(
    const std::vector<const Program*>& programs) {
  VarTable merged;
  std::vector<std::vector<VarId>> mappings;
  for (const Program* p : programs) {
    std::vector<VarId>& mapping = mappings.emplace_back();
    for (const std::string& name : p->vars().names()) {
      mapping.push_back(merged.Add(name));
    }
  }
  std::vector<Program> out;
  out.reserve(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const Program& p = *programs[i];
    out.emplace_back(p.name(), merged, p.regs(), p.dom(),
                     RemapVars(p.body(), mappings[i]));
  }
  return out;
}

namespace {

StmtPtr ReplaceAsserts(const StmtPtr& stmt, VarId goal_var, RegId goal_reg,
                       Value goal_value, bool& found) {
  switch (stmt->kind()) {
    case StmtKind::kAssertFail:
      found = true;
      return SSeq(SAssign(goal_reg, EConst(goal_value)),
                  SStore(goal_var, goal_reg));
    case StmtKind::kSeq:
      return SSeq(ReplaceAsserts(stmt->children()[0], goal_var, goal_reg,
                                 goal_value, found),
                  ReplaceAsserts(stmt->children()[1], goal_var, goal_reg,
                                 goal_value, found));
    case StmtKind::kChoice:
      return SChoice(ReplaceAsserts(stmt->children()[0], goal_var, goal_reg,
                                    goal_value, found),
                     ReplaceAsserts(stmt->children()[1], goal_var, goal_reg,
                                    goal_value, found));
    case StmtKind::kStar:
      return SStar(ReplaceAsserts(stmt->children()[0], goal_var, goal_reg,
                                  goal_value, found));
    default:
      return stmt;
  }
}

}  // namespace

bool ContainsAssert(const StmtPtr& stmt) {
  bool found = false;
  VisitStmts(stmt, [&](const Stmt& s) {
    if (s.kind() == StmtKind::kAssertFail) found = true;
  });
  return found;
}

GoalRewrite RewriteAssertToGoalStore(const Program& program, VarId goal_var,
                                     Value goal_value) {
  assert(goal_var.index() < program.vars().size());
  assert(goal_value >= 0 && goal_value < program.dom());
  GoalRewrite result;
  if (!ContainsAssert(program.body())) {
    result.program = program;
    result.had_assert = false;
    return result;
  }
  RegTable regs = program.regs();
  RegId goal_reg = regs.Add("__goal");
  bool found = false;
  StmtPtr body = ReplaceAsserts(program.body(), goal_var, goal_reg,
                                goal_value, found);
  result.program = Program(program.name(), program.vars(), std::move(regs),
                           program.dom(), std::move(body));
  result.had_assert = found;
  return result;
}

}  // namespace rapar
