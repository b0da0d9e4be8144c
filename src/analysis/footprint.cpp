#include "analysis/footprint.h"

namespace rapar {

std::vector<bool> ObservedVars(const std::vector<const Cfa*>& cfas,
                               std::size_t num_vars) {
  std::vector<bool> observed(num_vars, false);
  for (const Cfa* cfa : cfas) {
    for (const CfaEdge& edge : cfa->edges()) {
      if (edge.instr.kind == Instr::Kind::kLoad ||
          edge.instr.kind == Instr::Kind::kCas) {
        observed[edge.instr.var.index()] = true;
      }
    }
  }
  return observed;
}

}  // namespace rapar
