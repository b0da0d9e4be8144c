#include "dlopt/pred_graph.h"

#include <algorithm>
#include <deque>

#include "common/strings.h"

namespace rapar::dlopt {

namespace {

void Dedup(std::vector<dl::PredId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Iterative Tarjan SCC over `deps`. Emits components in reverse
// topological order (callees first); the caller renumbers.
struct Tarjan {
  const std::vector<std::vector<dl::PredId>>& adj;
  std::vector<int> index, low, on_stack;
  std::vector<dl::PredId> stack;
  std::vector<std::vector<dl::PredId>> comps;
  int next_index = 0;

  explicit Tarjan(const std::vector<std::vector<dl::PredId>>& a)
      : adj(a),
        index(a.size(), -1),
        low(a.size(), 0),
        on_stack(a.size(), 0) {}

  void Run() {
    for (dl::PredId v = 0; v < adj.size(); ++v) {
      if (index[v] < 0) Visit(v);
    }
  }

  void Visit(dl::PredId root) {
    // Explicit DFS stack: (node, next child position).
    std::vector<std::pair<dl::PredId, std::size_t>> dfs{{root, 0}};
    while (!dfs.empty()) {
      auto& [v, child] = dfs.back();
      if (child == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      if (child < adj[v].size()) {
        const dl::PredId w = adj[v][child++];
        if (index[w] < 0) {
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        std::vector<dl::PredId> comp;
        for (;;) {
          const dl::PredId w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp.push_back(w);
          if (w == v) break;
        }
        std::sort(comp.begin(), comp.end());
        comps.push_back(std::move(comp));
      }
      const dl::PredId done = v;
      dfs.pop_back();
      if (!dfs.empty()) {
        low[dfs.back().first] =
            std::min(low[dfs.back().first], low[done]);
      }
    }
  }
};

}  // namespace

PredGraph PredGraph::Build(const dl::Program& prog) {
  PredGraph g;
  g.num_preds = prog.num_preds();
  g.deps.resize(g.num_preds);
  g.rdeps.resize(g.num_preds);
  g.is_idb.assign(g.num_preds, false);
  g.has_fact.assign(g.num_preds, false);
  g.mentioned.assign(g.num_preds, false);

  for (const dl::Rule& r : prog.rules()) {
    g.mentioned[r.head.pred] = true;
    if (r.IsFact()) {
      g.has_fact[r.head.pred] = true;
      continue;
    }
    g.is_idb[r.head.pred] = true;
    for (const dl::Atom& a : r.body) {
      g.mentioned[a.pred] = true;
      g.deps[r.head.pred].push_back(a.pred);
    }
  }
  for (std::size_t p = 0; p < g.num_preds; ++p) Dedup(g.deps[p]);
  for (dl::PredId p = 0; p < g.num_preds; ++p) {
    for (dl::PredId q : g.deps[p]) g.rdeps[q].push_back(p);
  }
  for (std::size_t p = 0; p < g.num_preds; ++p) Dedup(g.rdeps[p]);

  Tarjan tarjan(g.deps);
  tarjan.Run();
  // Tarjan emits callees first; reverse so dependencies get higher ids and
  // scc_of is topologically ordered along `deps`.
  std::reverse(tarjan.comps.begin(), tarjan.comps.end());
  g.sccs = std::move(tarjan.comps);
  g.scc_of.assign(g.num_preds, -1);
  for (std::size_t c = 0; c < g.sccs.size(); ++c) {
    for (dl::PredId p : g.sccs[c]) g.scc_of[p] = static_cast<int>(c);
  }
  g.scc_recursive.assign(g.sccs.size(), false);
  for (std::size_t c = 0; c < g.sccs.size(); ++c) {
    if (g.sccs[c].size() > 1) {
      g.scc_recursive[c] = true;
      continue;
    }
    const dl::PredId p = g.sccs[c][0];
    g.scc_recursive[c] = std::binary_search(g.deps[p].begin(),
                                            g.deps[p].end(), p);
  }
  return g;
}

std::vector<bool> PredGraph::ReachableFrom(dl::PredId query) const {
  std::vector<bool> reach(num_preds, false);
  std::deque<dl::PredId> work{query};
  reach[query] = true;
  while (!work.empty()) {
    const dl::PredId p = work.front();
    work.pop_front();
    for (dl::PredId q : deps[p]) {
      if (!reach[q]) {
        reach[q] = true;
        work.push_back(q);
      }
    }
  }
  return reach;
}

std::size_t PredGraph::CondensationHeight(dl::PredId from) const {
  // Longest path over components, memoised; scc_of is topological along
  // deps, so a plain descending-id sweep is a valid evaluation order.
  std::vector<std::size_t> height(sccs.size(), 0);
  for (std::size_t c = sccs.size(); c-- > 0;) {
    std::size_t best = 0;
    bool counts = false;
    for (dl::PredId p : sccs[c]) {
      if (mentioned[p]) counts = true;
      for (dl::PredId q : deps[p]) {
        const std::size_t qc = static_cast<std::size_t>(scc_of[q]);
        if (qc != c) best = std::max(best, height[qc]);
      }
    }
    height[c] = best + (counts ? 1 : 0);
  }
  return height[static_cast<std::size_t>(scc_of[from])];
}

std::string PredGraph::ToDot(const dl::Program& prog,
                             const std::vector<bool>& highlight) const {
  std::string out = "digraph preds {\n  rankdir=LR;\n";
  for (std::size_t c = 0; c < sccs.size(); ++c) {
    bool any = false;
    for (dl::PredId p : sccs[c]) any = any || mentioned[p];
    if (!any) continue;
    const bool cluster = sccs[c].size() > 1;
    if (cluster) {
      out += StrCat("  subgraph cluster_scc", c,
                    " {\n    label=\"scc ", c, "\";\n");
    }
    for (dl::PredId p : sccs[c]) {
      if (!mentioned[p]) continue;
      out += StrCat(cluster ? "    " : "  ", "p", p, " [label=\"",
                    prog.pred(p).name, "/", prog.PrintedArity(p), "\"");
      if (!is_idb[p]) out += ", shape=box";
      if (!highlight.empty() && highlight[p]) {
        out += ", style=filled, fillcolor=lightgrey";
      }
      out += "];\n";
    }
    if (cluster) out += "  }\n";
  }
  for (dl::PredId p = 0; p < num_preds; ++p) {
    for (dl::PredId q : deps[p]) {
      out += StrCat("  p", p, " -> p", q, ";\n");
    }
  }
  out += "}\n";
  return out;
}

std::string PredGraph::ToText(const dl::Program& prog) const {
  std::string out;
  for (dl::PredId p = 0; p < num_preds; ++p) {
    if (!mentioned[p]) continue;
    out += StrCat(prog.pred(p).name, "/", prog.PrintedArity(p),
                  is_idb[p] ? "" : " (edb)", " ->");
    if (deps[p].empty()) {
      out += " (none)";
    } else {
      bool first = true;
      for (dl::PredId q : deps[p]) {
        out += StrCat(first ? " " : ", ", prog.pred(q).name);
        first = false;
      }
    }
    out += "\n";
  }
  for (std::size_t c = 0; c < sccs.size(); ++c) {
    bool any = false;
    for (dl::PredId p : sccs[c]) any = any || mentioned[p];
    if (!any) continue;
    out += StrCat("scc ", c, scc_recursive[c] ? " (recursive):" : ":");
    for (dl::PredId p : sccs[c]) {
      if (mentioned[p]) out += StrCat(" ", prog.pred(p).name);
    }
    out += "\n";
  }
  return out;
}

}  // namespace rapar::dlopt
