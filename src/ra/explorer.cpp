#include "ra/explorer.h"

#include <cassert>
#include <deque>
#include <unordered_map>

#include "common/deadline.h"

namespace rapar {

RaExplorer::RaExplorer(std::vector<const Cfa*> threads, Value dom,
                       std::size_t num_vars,
                       std::pair<std::size_t, std::size_t> symmetric_block)
    : threads_(std::move(threads)),
      dom_(dom),
      num_vars_(num_vars),
      symmetric_block_(symmetric_block) {
  assert(dom_ >= 2);
  for (const Cfa* cfa : threads_) {
    assert(cfa != nullptr);
    assert(cfa->program().vars().size() == num_vars_);
  }
}

void RaExplorer::Successors(const RaConfig& cfg,
                            std::vector<Successor>& out) const {
  for (std::size_t ti = 0; ti < threads_.size(); ++ti) {
    const Cfa& cfa = *threads_[ti];
    const RaThreadState& ts = cfg.thread(ti);
    for (EdgeId eid : cfa.OutEdges(ts.node)) {
      const CfaEdge& edge = cfa.Edge(eid);
      const Instr& instr = edge.instr;
      auto instr_str = [&] {
        return instr.ToString(cfa.program().vars(), cfa.program().regs());
      };
      switch (instr.kind) {
        case Instr::Kind::kNop: {
          Successor s{cfg, ti, instr_str()};
          s.config.thread(ti).node = edge.to;
          out.push_back(std::move(s));
          break;
        }
        case Instr::Kind::kAssume: {
          if (instr.expr->Eval(ts.rv, dom_) != 0) {
            Successor s{cfg, ti, instr_str()};
            s.config.thread(ti).node = edge.to;
            out.push_back(std::move(s));
          }
          break;
        }
        case Instr::Kind::kAssertFail: {
          Successor s{cfg, ti, instr_str()};
          s.config.thread(ti).node = edge.to;
          s.violation = true;
          out.push_back(std::move(s));
          break;
        }
        case Instr::Kind::kAssign: {
          Successor s{cfg, ti, instr_str()};
          RaThreadState& t = s.config.thread(ti);
          t.rv[instr.reg.index()] = instr.expr->Eval(t.rv, dom_);
          t.node = edge.to;
          out.push_back(std::move(s));
          break;
        }
        case Instr::Kind::kLoad: {
          const VarId x = instr.var;
          const auto& seq = cfg.MsgsOf(x);
          // LD: any message whose x-timestamp is at least the thread's.
          for (Timestamp p = ts.view[x];
               p < static_cast<Timestamp>(seq.size()); ++p) {
            Successor s{cfg, ti, instr_str()};
            RaThreadState& t = s.config.thread(ti);
            t.rv[instr.reg.index()] = seq[p].val;
            t.view = t.view.Join(seq[p].view);
            t.node = edge.to;
            out.push_back(std::move(s));
          }
          break;
        }
        case Instr::Kind::kStore: {
          const VarId x = instr.var;
          const Value d = ts.rv[instr.reg.index()];
          // ST: fresh timestamp strictly above the thread's view; every
          // insertion position in (view(x), end] is a distinct choice.
          for (Timestamp pos = ts.view[x] + 1; pos <= cfg.NumMsgs(x); ++pos) {
            if (!cfg.CanInsertAt(x, pos)) continue;
            Successor s{cfg, ti, instr_str()};
            bool ok = s.config.InsertMessage(x, pos, d, ts.view,
                                             /*glued=*/false);
            assert(ok);
            (void)ok;
            RaThreadState& t = s.config.thread(ti);
            t.view = s.config.MsgsOf(x)[pos].view;
            t.node = edge.to;
            out.push_back(std::move(s));
          }
          break;
        }
        case Instr::Kind::kCas: {
          const VarId x = instr.var;
          const Value expected = ts.rv[instr.reg.index()];
          const Value desired = ts.rv[instr.reg2.index()];
          const auto& seq = cfg.MsgsOf(x);
          // CAS: load a matching message at p, store at p+1, glued.
          for (Timestamp p = ts.view[x];
               p < static_cast<Timestamp>(seq.size()); ++p) {
            if (seq[p].val != expected) continue;
            const Timestamp pos = p + 1;
            if (!cfg.CanInsertAt(x, pos)) continue;
            Successor s{cfg, ti, instr_str()};
            const View joined = ts.view.Join(seq[p].view);
            bool ok = s.config.InsertMessage(x, pos, desired, joined,
                                             /*glued=*/true);
            assert(ok);
            (void)ok;
            RaThreadState& t = s.config.thread(ti);
            t.view = s.config.MsgsOf(x)[pos].view;
            t.node = edge.to;
            out.push_back(std::move(s));
          }
          break;
        }
      }
    }
  }
}

RaResult RaExplorer::CheckSafety(const RaExplorerOptions& options) {
  reachable_controls_.clear();
  generated_messages_.clear();
  RaResult result;

  std::vector<std::size_t> reg_counts;
  reg_counts.reserve(threads_.size());
  for (const Cfa* cfa : threads_) {
    reg_counts.push_back(cfa->program().regs().size());
  }
  RaConfig init(num_vars_, reg_counts);

  // Seen states -> (parent index, step) for witness reconstruction.
  struct NodeInfo {
    std::int64_t parent;
    RaTraceStep step;
    int depth;
  };
  std::unordered_map<RaConfig, std::size_t, RaConfigHash> seen;
  std::vector<NodeInfo> info;
  std::vector<const RaConfig*> by_index;
  std::deque<std::size_t> frontier;

  auto note_config = [&](const RaConfig& cfg) {
    for (std::size_t ti = 0; ti < threads_.size(); ++ti) {
      reachable_controls_.emplace(ti, cfg.thread(ti).node.value(),
                                  cfg.thread(ti).rv);
    }
    for (std::size_t xi = 0; xi < num_vars_; ++xi) {
      const auto& seq = cfg.MsgsOf(VarId(static_cast<std::uint32_t>(xi)));
      for (std::size_t p = 1; p < seq.size(); ++p) {
        generated_messages_.emplace(static_cast<std::uint32_t>(xi),
                                    seq[p].val);
      }
    }
  };

  auto [it, inserted] = seen.emplace(init, 0);
  info.push_back(NodeInfo{-1, {}, 0});
  by_index.push_back(&it->first);
  frontier.push_back(0);
  note_config(init);

  Deadline deadline(options.time_budget_ms);

  std::vector<Successor> succs;
  while (!frontier.empty()) {
    if (deadline.Poll()) {
      result.exhaustive = false;
      result.budget_hit = true;
      result.states = seen.size();
      return result;
    }
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    const int depth = info[cur].depth;
    if (depth >= options.max_depth) {
      result.exhaustive = false;
      continue;
    }
    succs.clear();
    Successors(*by_index[cur], succs);
    for (Successor& s : succs) {
      if (options.symmetry_reduction &&
          symmetric_block_.second > symmetric_block_.first) {
        s.config.SortThreadBlock(symmetric_block_.first,
                                 symmetric_block_.second);
      }
      auto [sit, fresh] = seen.emplace(std::move(s.config), seen.size());
      if (!fresh && !s.violation) continue;
      if (fresh) {
        info.push_back(
            NodeInfo{static_cast<std::int64_t>(cur),
                     RaTraceStep{s.thread, s.instr}, depth + 1});
        by_index.push_back(&sit->first);
        frontier.push_back(sit->second);
        note_config(sit->first);
      }
      if (s.violation && !result.violation) {
        result.violation = true;
        // Reconstruct witness.
        std::vector<RaTraceStep> steps;
        std::int64_t at = fresh ? static_cast<std::int64_t>(sit->second)
                                : static_cast<std::int64_t>(cur);
        if (!fresh) {
          steps.push_back(RaTraceStep{s.thread, s.instr});
        }
        while (at > 0) {
          steps.push_back(info[at].step);
          at = info[at].parent;
        }
        result.witness.assign(steps.rbegin(), steps.rend());
        if (options.stop_on_violation) {
          result.states = seen.size();
          result.exhaustive = false;
          return result;
        }
      }
      if (seen.size() >= options.max_states) {
        result.exhaustive = false;
        result.states = seen.size();
        return result;
      }
    }
  }
  result.states = seen.size();
  return result;
}

}  // namespace rapar
