// Control-flow automata (CFA) for Com programs.
//
// Both semantics execute programs in CFA form: nodes are control locations
// (the "program counter" representation of Com mentioned in §2), edges carry
// one instruction each. Compilation is purely structural; `c*` becomes a
// loop through a fresh head node, `⊕` a fork.
#ifndef RAPAR_LANG_CFA_H_
#define RAPAR_LANG_CFA_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "lang/program.h"

namespace rapar {

// One instruction labelling a CFA edge.
struct Instr {
  enum class Kind {
    kNop,         // structural edge (from skip / sequencing)
    kAssume,      // guard: expr must evaluate to non-zero
    kAssign,      // reg := expr
    kLoad,        // reg := var
    kStore,       // var := reg
    kCas,         // cas(var, reg, reg2)
    kAssertFail,  // reaching (i.e. traversing) this edge is a violation
  };

  Instr() = default;
  explicit Instr(Kind k) : kind(k) {}

  Kind kind = Kind::kNop;
  ExprPtr expr;                  // kAssume / kAssign
  VarId var = VarId::Invalid();  // kLoad / kStore / kCas
  RegId reg = RegId::Invalid();  // kAssign/kLoad target; kStore source;
                                 // kCas expected-value register
  RegId reg2 = RegId::Invalid();  // kCas desired-value register
  SrcLoc loc;                     // source position of the originating Stmt

  // True if executing the instruction adds a message to memory.
  bool IsStoreLike() const {
    return kind == Kind::kStore || kind == Kind::kCas;
  }

  std::string ToString(const VarTable& vars, const RegTable& regs) const;
};

struct CfaEdge {
  NodeId from;
  NodeId to;
  Instr instr;
};

// A compiled program. Node 0 is always the entry node.
class Cfa {
 public:
  // Compiles `program` into a CFA. Never fails: every Com statement has a
  // direct translation.
  static Cfa Build(const Program& program);

  // Builds a CFA from an explicit node count and edge list (used by
  // analysis/prepass.h to construct pruned variants of a compiled CFA).
  // Node ids must be < num_nodes; node 0 remains the entry.
  static Cfa FromParts(Program program, std::size_t num_nodes,
                       std::vector<CfaEdge> edges);

  const Program& program() const { return program_; }
  NodeId entry() const { return NodeId(0); }
  std::size_t num_nodes() const { return num_nodes_; }
  const std::vector<CfaEdge>& edges() const { return edges_; }

  // Edge ids leaving `node`.
  const std::vector<EdgeId>& OutEdges(NodeId node) const {
    return out_edges_[node.index()];
  }
  const CfaEdge& Edge(EdgeId e) const { return edges_[e.index()]; }

  // --- analyses ---------------------------------------------------------

  // True if no cycle is reachable from the entry (the `acyc` restriction).
  bool IsAcyclic() const;
  // Number of store edges + CAS edges. For acyclic programs this bounds the
  // number of store events any single execution performs (each edge is
  // traversed at most once on a path), which drives the timestamp budget T
  // of §4.1.
  int CountStoreInstructions() const;

  // Multi-line dump for debugging and goldens.
  std::string ToString() const;

 private:
  explicit Cfa(Program program) : program_(std::move(program)) {}

  NodeId NewNode();
  void AddEdge(NodeId from, NodeId to, Instr instr);
  // Compiles `stmt` between the given nodes.
  void Compile(const StmtPtr& stmt, NodeId from, NodeId to);

  Program program_;
  std::size_t num_nodes_ = 0;
  std::vector<CfaEdge> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
};

}  // namespace rapar

#endif  // RAPAR_LANG_CFA_H_
