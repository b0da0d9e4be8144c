// The recursive guess enumerator that DisGuessCursor's odometers replaced,
// kept as the reference the cursor is checked against
// (dis_guess_cursor_test.cpp). Phase A enumerates each dis thread's
// paths; phase B recurses over one interleaving of the stores per
// variable, phase C over one read source per load or CAS step, and every
// leaf is one guess.
//
// Two flags differ from the cursor by design. EnumPaths flags a thread
// with exactly `cap` paths as cut, and Stopped() clears *complete as soon
// as the global index reaches the cap, even when the guess there was the
// last one; the cursor looks one guess ahead instead. With no dis thread
// the reference emits its one guess even at cap 0.
#ifndef RAPAR_TESTS_DIS_GUESS_REFERENCE_H_
#define RAPAR_TESTS_DIS_GUESS_REFERENCE_H_

#include <functional>
#include <utility>
#include <vector>

#include "encoding/dis_guess.h"

namespace rapar::reference {

// Phase A: enumerate a thread's control paths with concrete register
// effects. Loads branch over all domain values; assumes prune.
inline void EnumPaths(const Cfa& cfa, Value dom, std::size_t cap,
               std::vector<ThreadGuess>& out, bool* complete) {
  struct Frame {
    NodeId node;
    std::vector<Value> rv;
    ThreadGuess acc;
  };
  std::vector<Frame> stack;
  Frame init;
  init.node = cfa.entry();
  init.rv.assign(cfa.program().regs().size(), kInitValue);
  stack.push_back(std::move(init));

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (cfa.OutEdges(f.node).empty()) {
      out.push_back(std::move(f.acc));
      if (out.size() >= cap) {
        *complete = false;
        return;
      }
      continue;
    }
    for (EdgeId eid : cfa.OutEdges(f.node)) {
      const CfaEdge& edge = cfa.Edge(eid);
      const Instr& instr = edge.instr;
      GuessStep step;
      step.edge = eid.value();
      switch (instr.kind) {
        case Instr::Kind::kNop: {
          Frame next = f;
          next.node = edge.to;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kAssume: {
          if (instr.expr->Eval(f.rv, dom) == 0) break;
          Frame next = f;
          next.node = edge.to;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kAssertFail: {
          Frame next = f;
          next.node = edge.to;
          next.acc.hits_assert = true;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kAssign: {
          Frame next = f;
          next.rv[instr.reg.index()] = instr.expr->Eval(next.rv, dom);
          next.node = edge.to;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kLoad: {
          for (Value v = 0; v < dom; ++v) {
            Frame next = f;
            next.rv[instr.reg.index()] = v;
            next.node = edge.to;
            GuessStep s = step;
            s.read_value = v;
            s.rv_after = next.rv;
            next.acc.steps.push_back(std::move(s));
            stack.push_back(std::move(next));
          }
          break;
        }
        case Instr::Kind::kStore: {
          Frame next = f;
          next.node = edge.to;
          step.store_pos = 0;  // position assigned in phase B
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kCas: {
          // The CAS reads exactly rv[r1] and stores rv[r2].
          Frame next = f;
          next.node = edge.to;
          GuessStep s = step;
          s.read_value = f.rv[instr.reg.index()];
          s.store_pos = 0;
          s.rv_after = next.rv;
          next.acc.steps.push_back(std::move(s));
          stack.push_back(std::move(next));
          break;
        }
      }
    }
  }
}

// Receives guesses in enumeration order together with their global
// enumeration index; returns false to abort the remaining enumeration.
using GuessSink = std::function<bool(std::size_t, DisGuess&&)>;

// The recursive enumerator DisGuessCursor replaced, kept as it was. Produces
// guesses into a sink; the enumeration order and the max_guesses cap
// semantics are those of the original materializing enumerator.
class GuessBuilder {
 public:
  GuessBuilder(const SimplSystem& sys, const GuessEnumOptions& options,
               GuessSink sink, bool* complete)
      : sys_(sys),
        options_(options),
        sink_(std::move(sink)),
        complete_(complete) {}

  void Run() {
    const std::size_t n = sys_.dis.size();
    if (n == 0) {
      DisGuess g;
      g.mem.resize(sys_.num_vars);
      Emit(std::move(g));
      return;
    }
    per_thread_paths_.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      EnumPaths(*sys_.dis[t], sys_.dom, options_.max_guesses,
                per_thread_paths_[t], complete_);
      if (per_thread_paths_[t].empty()) return;  // no executable path
    }
    chosen_.assign(n, 0);
    PickPaths(0);
  }

 private:
  const Cfa& DisCfa(std::size_t t) const { return *sys_.dis[t]; }

  // Enumeration must stop: the cap was hit or the sink cancelled. The
  // cap is on the global index so a resumed run cuts the same prefix of
  // the enumeration order.
  bool Stopped() {
    if (stopped_) return true;
    if (global_index_ >= options_.max_guesses) {
      *complete_ = false;
      stopped_ = true;
      return true;
    }
    return false;
  }

  void Emit(DisGuess&& guess) {
    const std::size_t idx = global_index_++;
    // Resume suppresses emission only: the global index keeps counting.
    if (idx < options_.start_index) return;
    if (!sink_(idx, std::move(guess))) {
      stopped_ = true;
      return;
    }
    ++produced_;
  }

  // Phase A product: choose one path per thread.
  void PickPaths(std::size_t t) {
    if (Stopped()) return;
    if (t == chosen_.size()) {
      MergeStores();
      return;
    }
    for (std::size_t i = 0; i < per_thread_paths_[t].size(); ++i) {
      chosen_[t] = i;
      PickPaths(t + 1);
      if (Stopped()) return;
    }
  }

  // Phase B: interleave the store events of the chosen paths per variable.
  void MergeStores() {
    // Collect store events per variable: (thread, step index).
    std::vector<std::vector<std::pair<int, int>>> events(sys_.num_vars);
    for (std::size_t t = 0; t < chosen_.size(); ++t) {
      const ThreadGuess& path = per_thread_paths_[t][chosen_[t]];
      for (std::size_t s = 0; s < path.steps.size(); ++s) {
        if (path.steps[s].store_pos < 0) continue;
        const Instr& instr =
            DisCfa(t).Edge(EdgeId(path.steps[s].edge)).instr;
        events[instr.var.index()].push_back(
            {static_cast<int>(t), static_cast<int>(s)});
      }
    }
    // Enumerate per-variable interleavings (indices per thread).
    std::vector<std::vector<std::vector<std::pair<int, int>>>> merges(
        sys_.num_vars);
    for (std::size_t x = 0; x < sys_.num_vars; ++x) {
      // Per-thread subsequences on x.
      std::vector<std::vector<std::pair<int, int>>> seqs;
      for (std::size_t t = 0; t < chosen_.size(); ++t) {
        std::vector<std::pair<int, int>> seq;
        for (const auto& ev : events[x]) {
          if (ev.first == static_cast<int>(t)) seq.push_back(ev);
        }
        if (!seq.empty()) seqs.push_back(std::move(seq));
      }
      std::vector<std::pair<int, int>> acc;
      EnumMerges(seqs, std::vector<std::size_t>(seqs.size(), 0), acc,
                 merges[x]);
    }
    // Product over variables.
    std::vector<std::size_t> pick(sys_.num_vars, 0);
    ProductMerges(merges, 0, pick);
  }

  static void EnumMerges(
      const std::vector<std::vector<std::pair<int, int>>>& seqs,
      std::vector<std::size_t> idx, std::vector<std::pair<int, int>>& acc,
      std::vector<std::vector<std::pair<int, int>>>& out) {
    bool done = true;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      if (idx[i] < seqs[i].size()) {
        done = false;
        acc.push_back(seqs[i][idx[i]]);
        ++idx[i];
        EnumMerges(seqs, idx, acc, out);
        --idx[i];
        acc.pop_back();
      }
    }
    if (done) out.push_back(acc);
  }

  void ProductMerges(
      const std::vector<std::vector<std::vector<std::pair<int, int>>>>&
          merges,
      std::size_t x, std::vector<std::size_t>& pick) {
    if (Stopped()) return;
    if (x == merges.size()) {
      BuildMemAndResolveReads(merges, pick);
      return;
    }
    for (std::size_t i = 0; i < merges[x].size(); ++i) {
      pick[x] = i;
      ProductMerges(merges, x + 1, pick);
      if (Stopped()) return;
    }
  }

  // Phase C: fix store positions, then resolve read sources.
  void BuildMemAndResolveReads(
      const std::vector<std::vector<std::vector<std::pair<int, int>>>>&
          merges,
      const std::vector<std::size_t>& pick) {
    DisGuess guess;
    guess.threads.resize(chosen_.size());
    for (std::size_t t = 0; t < chosen_.size(); ++t) {
      guess.threads[t] = per_thread_paths_[t][chosen_[t]];
    }
    guess.mem.assign(sys_.num_vars, {});
    for (std::size_t x = 0; x < sys_.num_vars; ++x) {
      const auto& order = merges[x][pick[x]];
      for (std::size_t p = 0; p < order.size(); ++p) {
        auto [t, s] = order[p];
        GuessStep& step = guess.threads[t].steps[s];
        step.store_pos = static_cast<int>(p) + 1;
        const Instr& instr = DisCfa(t).Edge(EdgeId(step.edge)).instr;
        MemCell cell;
        // Store value: for stores rv[reg]; for CAS rv[reg2]. rv is
        // unchanged by both, so rv_after works.
        cell.val = instr.kind == Instr::Kind::kCas
                       ? step.rv_after[instr.reg2.index()]
                       : step.rv_after[instr.reg.index()];
        cell.thread = t;
        cell.step_idx = s;
        guess.mem[x].push_back(cell);
      }
    }
    ResolveReads(guess, 0, 0);
  }

  // Recursively resolves read sources for thread t from step s on.
  void ResolveReads(DisGuess& guess, std::size_t t, std::size_t s) {
    if (Stopped()) return;
    if (t == guess.threads.size()) {
      Finalise(guess);
      return;
    }
    if (s == guess.threads[t].steps.size()) {
      ResolveReads(guess, t + 1, 0);
      return;
    }
    GuessStep& step = guess.threads[t].steps[s];
    const Instr& instr = DisCfa(t).Edge(EdgeId(step.edge)).instr;
    if (instr.kind == Instr::Kind::kLoad) {
      const std::size_t x = instr.var.index();
      // Source: init message (value 0) or any matching dis store, or env.
      if (step.read_value == kInitValue) {
        step.read_from_env = false;
        step.read_dis_pos = 0;
        ResolveReads(guess, t, s + 1);
      }
      for (int p = 1; p <= guess.StoresOn(x); ++p) {
        if (guess.mem[x][p - 1].val != step.read_value) continue;
        step.read_from_env = false;
        step.read_dis_pos = p;
        ResolveReads(guess, t, s + 1);
        if (Stopped()) return;
      }
      step.read_from_env = true;
      step.read_dis_pos = -1;
      ResolveReads(guess, t, s + 1);
      step.read_from_env = false;  // restore
      return;
    }
    if (instr.kind == Instr::Kind::kCas) {
      const std::size_t x = instr.var.index();
      const int p = step.store_pos;
      // CAS on a dis message: adjacency forces the load at position p-1.
      const Value below =
          p - 1 == 0 ? kInitValue : guess.mem[x][p - 2].val;
      if (below == step.read_value) {
        step.read_from_env = false;
        step.read_dis_pos = p - 1;
        guess.mem[x][p - 1].glued = true;
        ResolveReads(guess, t, s + 1);
        guess.mem[x][p - 1].glued = false;
        if (Stopped()) return;
      }
      // CAS on an env message: the clone sits directly below; no glue.
      step.read_from_env = true;
      step.read_dis_pos = -1;
      ResolveReads(guess, t, s + 1);
      step.read_from_env = false;
      return;
    }
    ResolveReads(guess, t, s + 1);
  }

  void Finalise(DisGuess& guess) {
    if (Stopped()) return;
    Emit(DisGuess(guess));  // copy: the recursion keeps mutating `guess`
  }

  const SimplSystem& sys_;
  const GuessEnumOptions& options_;
  GuessSink sink_;
  bool* complete_;
  std::size_t global_index_ = 0;  // next guess's global enumeration index
  std::size_t produced_ = 0;      // guesses actually emitted
  bool stopped_ = false;
  std::vector<std::vector<ThreadGuess>> per_thread_paths_;
  std::vector<std::size_t> chosen_;
};

// Every guess of the reference enumeration with its global index, and
// the reference's complete flag in *complete.
inline std::vector<IndexedGuess> ReferenceGuesses(
    const SimplSystem& sys, const GuessEnumOptions& options, bool* complete) {
  *complete = true;
  std::vector<IndexedGuess> out;
  GuessBuilder builder(
      sys, options,
      [&out](std::size_t idx, DisGuess&& g) {
        out.push_back(IndexedGuess{idx, std::move(g)});
        return true;
      },
      complete);
  builder.Run();
  return out;
}

}  // namespace rapar::reference

#endif  // RAPAR_TESTS_DIS_GUESS_REFERENCE_H_
