// Predicate dependency graph over a datalog::Program (rapar_dlopt).
//
// Nodes are predicates; there is an edge p -> q when some rule with head
// predicate p has q in its body ("p depends on q"). On top of the graph:
//
//   * SCC decomposition (iterative Tarjan) with a topologically ordered
//     condensation — the unit of the width analysis (width.h) and of the
//     per-SCC report `rapar_cli dlanalyze` prints;
//   * backward reachability from the query predicate — the cone of
//     predicates that can contribute to deriving the query; rules outside
//     it are dead (optimize.h drops them, diagnostics flag them RA020).
//
// Productivity is not a graph property here: it depends on the constants
// of heads and body atoms, and OptimizeForQuery's pass 1 (optimize.h)
// computes it value by value (RA021).
//
// The makeP programs (§4.1) are the motivating instance: every etp/dtp
// use carries a constant control location, so the graph mirrors the
// system's control structure and the reachable cone of `unsafe()` is
// usually a small fraction of the emitted rules.
#ifndef RAPAR_DLOPT_PRED_GRAPH_H_
#define RAPAR_DLOPT_PRED_GRAPH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace rapar::dlopt {

struct PredGraph {
  std::size_t num_preds = 0;
  // Adjacency, deduplicated: deps[p] = body predicates of p's rules.
  std::vector<std::vector<dl::PredId>> deps;
  // Reverse adjacency: rdeps[q] = head predicates whose rules use q.
  std::vector<std::vector<dl::PredId>> rdeps;
  // Head of some non-fact rule.
  std::vector<bool> is_idb;
  // Head of some fact.
  std::vector<bool> has_fact;
  // Mentioned in some rule (head or body); unmentioned predicates are
  // declaration-only and excluded from the dumps.
  std::vector<bool> mentioned;

  // SCC decomposition. Components are numbered in topological order of the
  // condensation: if p depends on q and they are in different components,
  // scc_of[p] < scc_of[q] (dependencies point to higher ids).
  std::vector<int> scc_of;
  std::vector<std::vector<dl::PredId>> sccs;  // members per component
  // Component contains a cycle (size > 1, or a self-loop): the predicates
  // are mutually recursive.
  std::vector<bool> scc_recursive;

  static PredGraph Build(const dl::Program& prog);

  std::size_t num_sccs() const { return sccs.size(); }

  // Predicates backward-reachable from `query` (query included): the set
  // whose rules can take part in a derivation of the query atom.
  std::vector<bool> ReachableFrom(dl::PredId query) const;

  // Longest path (in #components) from `from`'s component through the
  // condensation, counting only components with at least one rule or fact.
  // This bounds the height of any derivation tree for a query on `from`
  // when no component is recursive (width.h uses it for the static cache
  // bound).
  std::size_t CondensationHeight(dl::PredId from) const;

  // Graphviz dump: one node per mentioned predicate, clustered by SCC,
  // EDB-only predicates boxed. `highlight` (optional, may be empty) marks
  // the backward-reachable cone of the query.
  std::string ToDot(const dl::Program& prog,
                    const std::vector<bool>& highlight = {}) const;
  // Text dump: "pred -> dep, dep, ..." per mentioned predicate plus an
  // SCC listing, stable order.
  std::string ToText(const dl::Program& prog) const;
};

}  // namespace rapar::dlopt

#endif  // RAPAR_DLOPT_PRED_GRAPH_H_
