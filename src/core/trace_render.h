// Renders abstract witness runs in the style of the paper's Figures 1/3:
// one line per step with the instruction and the message read/written,
// including its abstract view.
#ifndef RAPAR_CORE_TRACE_RENDER_H_
#define RAPAR_CORE_TRACE_RENDER_H_

#include <string>
#include <vector>

#include "simplified/explorer.h"

namespace rapar {

struct TraceRenderOptions {
  // Suppress steps that neither touch memory nor decide control (silent
  // register bookkeeping).
  bool elide_silent = false;
};

// Deterministically replays `witness` and renders it. Views are printed
// in the N ∪ N⁺ notation (e.g. "x->1+").
std::string RenderTrace(const SimplSystem& sys,
                        const std::vector<SimplStep>& witness,
                        const TraceRenderOptions& options = {});

}  // namespace rapar

#endif  // RAPAR_CORE_TRACE_RENDER_H_
