#include "analysis/prepass.h"

#include <utility>

#include "analysis/footprint.h"
#include "analysis/liveness.h"
#include "analysis/reachability.h"
#include "common/strings.h"

namespace rapar {

std::string PrepassStats::ToString() const {
  return StrCat("removed ", dead_edges_removed, " dead edge",
                dead_edges_removed == 1 ? "" : "s", ", folded ",
                guards_folded, " guard", guards_folded == 1 ? "" : "s",
                ", sliced ", stores_sliced, " store",
                stores_sliced == 1 ? "" : "s", ", dropped ", assigns_dropped,
                " dead assignment", assigns_dropped == 1 ? "" : "s");
}

Cfa PruneCfa(const Cfa& cfa, const std::vector<bool>& keep_stores,
             PrepassStats& stats) {
  const ReachabilityResult reach = AnalyzeReachability(cfa);
  const LivenessResult live = AnalyzeLiveness(cfa);

  std::vector<CfaEdge> edges;
  edges.reserve(cfa.edges().size());
  for (std::size_t i = 0; i < cfa.edges().size(); ++i) {
    const CfaEdge& edge = cfa.edges()[i];
    if (reach.edge_dead[i]) {
      ++stats.dead_edges_removed;
      continue;
    }
    CfaEdge copy = edge;
    auto to_nop = [&copy, &edge] {
      Instr nop;
      nop.loc = edge.instr.loc;
      copy.instr = std::move(nop);
    };
    switch (edge.instr.kind) {
      case Instr::Kind::kAssume:
        if (reach.guards[i] == GuardVerdict::kAlwaysTrue) {
          to_nop();
          ++stats.guards_folded;
        }
        break;
      case Instr::Kind::kStore:
        if (!keep_stores[edge.instr.var.index()]) {
          to_nop();
          ++stats.stores_sliced;
        }
        break;
      case Instr::Kind::kAssign:
        if (live.assign_dead[i]) {
          to_nop();
          ++stats.assigns_dropped;
        }
        break;
      default:
        break;
    }
    edges.push_back(std::move(copy));
  }
  return Cfa::FromParts(cfa.program(), cfa.num_nodes(), std::move(edges));
}

PrepassResult RunPrepass(const Cfa& env, const std::vector<const Cfa*>& dis,
                         VarId protect_var) {
  std::vector<const Cfa*> all;
  all.reserve(dis.size() + 1);
  all.push_back(&env);
  all.insert(all.end(), dis.begin(), dis.end());
  std::vector<bool> keep =
      ObservedVars(all, env.program().vars().size());
  if (protect_var.valid()) keep[protect_var.index()] = true;

  PrepassStats stats;
  Cfa env_pruned = PruneCfa(env, keep, stats);
  std::vector<Cfa> dis_pruned;
  dis_pruned.reserve(dis.size());
  for (const Cfa* d : dis) dis_pruned.push_back(PruneCfa(*d, keep, stats));
  return PrepassResult{std::move(env_pruned), std::move(dis_pruned), stats};
}

}  // namespace rapar
