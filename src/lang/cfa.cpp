#include "lang/cfa.h"

#include <cassert>

#include "common/strings.h"

namespace rapar {

std::string Instr::ToString(const VarTable& vars, const RegTable& regs) const {
  switch (kind) {
    case Kind::kNop:
      return "nop";
    case Kind::kAssume:
      return StrCat("assume ", expr->ToString(regs));
    case Kind::kAssign:
      return StrCat(regs.Name(reg), " := ", expr->ToString(regs));
    case Kind::kLoad:
      return StrCat(regs.Name(reg), " := ", vars.Name(var));
    case Kind::kStore:
      return StrCat(vars.Name(var), " := ", regs.Name(reg));
    case Kind::kCas:
      return StrCat("cas(", vars.Name(var), ", ", regs.Name(reg), ", ",
                    regs.Name(reg2), ")");
    case Kind::kAssertFail:
      return "assert false";
  }
  return "?";
}

Cfa Cfa::Build(const Program& program) {
  Cfa cfa(program);
  NodeId entry = cfa.NewNode();
  NodeId exit = cfa.NewNode();
  cfa.Compile(cfa.program_.body(), entry, exit);
  return cfa;
}

Cfa Cfa::FromParts(Program program, std::size_t num_nodes,
                   std::vector<CfaEdge> edges) {
  Cfa cfa(std::move(program));
  cfa.num_nodes_ = num_nodes;
  cfa.out_edges_.resize(num_nodes);
  for (CfaEdge& e : edges) {
    assert(e.from.index() < num_nodes && e.to.index() < num_nodes);
    EdgeId id(static_cast<std::uint32_t>(cfa.edges_.size()));
    cfa.out_edges_[e.from.index()].push_back(id);
    cfa.edges_.push_back(std::move(e));
  }
  return cfa;
}

NodeId Cfa::NewNode() {
  NodeId id(static_cast<std::uint32_t>(num_nodes_++));
  out_edges_.emplace_back();
  return id;
}

void Cfa::AddEdge(NodeId from, NodeId to, Instr instr) {
  EdgeId id(static_cast<std::uint32_t>(edges_.size()));
  edges_.push_back(CfaEdge{from, to, std::move(instr)});
  out_edges_[from.index()].push_back(id);
}

void Cfa::Compile(const StmtPtr& stmt, NodeId from, NodeId to) {
  assert(stmt != nullptr);
  const SrcLoc loc = stmt->loc();
  auto instr_at = [loc](Instr::Kind kind) {
    Instr instr(kind);
    instr.loc = loc;
    return instr;
  };
  switch (stmt->kind()) {
    case StmtKind::kSkip:
      AddEdge(from, to, instr_at(Instr::Kind::kNop));
      return;
    case StmtKind::kAssume: {
      Instr instr = instr_at(Instr::Kind::kAssume);
      instr.expr = stmt->expr();
      AddEdge(from, to, std::move(instr));
      return;
    }
    case StmtKind::kAssertFail:
      AddEdge(from, to, instr_at(Instr::Kind::kAssertFail));
      return;
    case StmtKind::kAssign: {
      Instr instr = instr_at(Instr::Kind::kAssign);
      instr.expr = stmt->expr();
      instr.reg = stmt->reg();
      AddEdge(from, to, std::move(instr));
      return;
    }
    case StmtKind::kSeq: {
      NodeId mid = NewNode();
      Compile(stmt->children()[0], from, mid);
      Compile(stmt->children()[1], mid, to);
      return;
    }
    case StmtKind::kChoice:
      Compile(stmt->children()[0], from, to);
      Compile(stmt->children()[1], from, to);
      return;
    case StmtKind::kStar: {
      // Fresh head node so the loop does not capture unrelated edges at
      // `from`.
      NodeId head = NewNode();
      AddEdge(from, head, instr_at(Instr::Kind::kNop));
      Compile(stmt->children()[0], head, head);
      AddEdge(head, to, instr_at(Instr::Kind::kNop));
      return;
    }
    case StmtKind::kLoad: {
      Instr instr = instr_at(Instr::Kind::kLoad);
      instr.var = stmt->var();
      instr.reg = stmt->reg();
      AddEdge(from, to, std::move(instr));
      return;
    }
    case StmtKind::kStore: {
      Instr instr = instr_at(Instr::Kind::kStore);
      instr.var = stmt->var();
      instr.reg = stmt->reg();
      AddEdge(from, to, std::move(instr));
      return;
    }
    case StmtKind::kCas: {
      Instr instr = instr_at(Instr::Kind::kCas);
      instr.var = stmt->var();
      instr.reg = stmt->reg();
      instr.reg2 = stmt->reg2();
      AddEdge(from, to, std::move(instr));
      return;
    }
  }
  assert(false && "unreachable");
}

bool Cfa::IsAcyclic() const {
  // Iterative three-colour DFS over nodes.
  enum : char { kWhite, kGrey, kBlack };
  std::vector<char> colour(num_nodes_, kWhite);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (std::size_t start = 0; start < num_nodes_; ++start) {
    if (colour[start] != kWhite) continue;
    stack.emplace_back(NodeId(static_cast<std::uint32_t>(start)), 0);
    colour[start] = kGrey;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& out = out_edges_[node.index()];
      if (next == out.size()) {
        colour[node.index()] = kBlack;
        stack.pop_back();
        continue;
      }
      NodeId succ = edges_[out[next].index()].to;
      ++next;
      if (colour[succ.index()] == kGrey) return false;
      if (colour[succ.index()] == kWhite) {
        colour[succ.index()] = kGrey;
        stack.emplace_back(succ, 0);
      }
    }
  }
  return true;
}

int Cfa::CountStoreInstructions() const {
  int count = 0;
  for (const auto& e : edges_) {
    if (e.instr.IsStoreLike()) ++count;
  }
  return count;
}

std::string Cfa::ToString() const {
  std::string out =
      StrCat("cfa ", program_.name(), " (", num_nodes_, " nodes, ",
             edges_.size(), " edges)\n");
  for (const auto& e : edges_) {
    out += StrCat("  n", e.from.value(), " -> n", e.to.value(), " : ",
                  e.instr.ToString(program_.vars(), program_.regs()), "\n");
  }
  return out;
}

}  // namespace rapar
