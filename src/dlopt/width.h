// Static linearity / cache-width analysis (rapar_dlopt).
//
// Classifies each SCC of the predicate dependency graph by how many IDB
// atoms its rules join, which decides which solver applies to a query on
// that part of the program (§4):
//
//   kEdbOnly   — no deriving rules: fact lookups only;
//   kLinear    — every rule joins at most one IDB atom: the linear
//                Datalog fragment, query evaluation in PSPACE (Gottlob &
//                Papadimitriou; Program::IsLinear is the whole-program
//                version);
//   kCache     — at most two IDB atoms per body: the Cache Datalog shape
//                makeP emits (thread predicate ⋈ message predicate); the
//                ⊢_k bounded-cache solver (datalog/cache.h) and, when
//                every body has ≤ 3 atoms, the Lemma 4.2 linearisation
//                (datalog/cache_to_linear.h) apply;
//   kWide      — some rule joins ≥ 3 IDB atoms: outside the paper's
//                fragment, only standard evaluation applies.
//
// The analysis also derives a static cache bound: when no SCC reachable
// from the query is recursive, every derivation tree for the query has
// height at most the condensation height H, and a depth-first ⊢_k
// evaluation that caches one rule frame (≤ max-body-size atoms) per tree
// level plus the goal needs at most k = H·B + 1 cached atoms (B = the
// largest body). The bound is coarse but sound, and it is *static*:
// recursive programs get no static bound — there Lemma 4.4's dynamic
// O(Q0²) bound applies and datalog/cache.h's MinimalCacheSize probes it.
#ifndef RAPAR_DLOPT_WIDTH_H_
#define RAPAR_DLOPT_WIDTH_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "datalog/engine.h"
#include "dlopt/pred_graph.h"

namespace rapar::dlopt {

enum class WidthClass { kEdbOnly, kLinear, kCache, kWide };

const char* WidthClassName(WidthClass w);

struct SccWidth {
  // Index into PredGraph::sccs.
  std::size_t scc = 0;
  WidthClass cls = WidthClass::kEdbOnly;
  bool recursive = false;
  // Over the rules whose head lies in this SCC:
  std::size_t num_rules = 0;          // non-fact rules
  std::size_t num_facts = 0;
  std::size_t max_body_atoms = 0;     // all atoms
  std::size_t max_idb_body_atoms = 0; // atoms on IDB predicates
  // Lemma 4.2 requires every body to have at most 3 atoms.
  bool linear_transform_applicable = false;
};

struct WidthReport {
  std::vector<SccWidth> sccs;  // topological order, only non-empty SCCs
  // Whole-program classification (over rules reachable from the query
  // when one was given, else all rules).
  WidthClass program_cls = WidthClass::kEdbOnly;
  bool program_recursive = false;
  std::size_t max_body_atoms = 0;
  // Static ⊢_k bound (see file comment); unset when some reachable SCC is
  // recursive.
  std::optional<std::size_t> static_k_bound;

  // One row per SCC: members, class, widths, applicable solvers.
  std::string ToString(const dl::Program& prog,
                       const PredGraph& graph) const;
};

// Analyzes `prog` over its dependency graph. With `query` set, rules
// outside the query's backward-reachable cone are ignored (they do not
// constrain which solver the query needs).
WidthReport AnalyzeWidth(const dl::Program& prog, const PredGraph& graph,
                         std::optional<dl::PredId> query = std::nullopt);

// Per-predicate growth ranks from the same recursion classification the
// width report is built on: EDB predicates rank 0, derived predicates in
// a non-recursive SCC rank 1, mutually recursive predicates rank 2.
// Nothing in the library reads them since the engine joins in body
// order (engine.h, JoinHints); rabench/traced_main.cpp still builds
// them in its "dlopt.hints" span.
dl::JoinHints MakeJoinHints(const PredGraph& graph);

}  // namespace rapar::dlopt

#endif  // RAPAR_DLOPT_WIDTH_H_
