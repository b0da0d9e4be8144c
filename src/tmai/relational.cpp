#include "tmai/relational.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "tmai/fixpoint.h"
#include "tmai/tmai.h"

namespace rapar::tmai {

PairSet PairSet::Top() {
  PairSet s;
  s.top_ = true;
  return s;
}

PairSet PairSet::Of(VarVal p) {
  PairSet s;
  s.pairs_.push_back(p);
  return s;
}

bool PairSet::Contains(VarVal p) const {
  if (top_) return true;
  return std::binary_search(pairs_.begin(), pairs_.end(), p);
}

void PairSet::Insert(VarVal p) {
  if (top_) return;
  auto it = std::lower_bound(pairs_.begin(), pairs_.end(), p);
  if (it == pairs_.end() || *it != p) pairs_.insert(it, p);
}

bool PairSet::UnionWith(const PairSet& o) {
  if (top_) return false;
  if (o.top_) {
    top_ = true;
    pairs_.clear();
    return true;
  }
  const std::size_t before = pairs_.size();
  std::vector<VarVal> merged;
  merged.reserve(before + o.pairs_.size());
  std::set_union(pairs_.begin(), pairs_.end(), o.pairs_.begin(),
                 o.pairs_.end(), std::back_inserter(merged));
  pairs_ = std::move(merged);
  return pairs_.size() != before;
}

bool PairSet::IntersectWith(const PairSet& o) {
  if (o.top_) return false;
  if (top_) {
    top_ = false;
    pairs_ = o.pairs_;
    return true;
  }
  const std::size_t before = pairs_.size();
  std::vector<VarVal> meet;
  std::set_intersection(pairs_.begin(), pairs_.end(), o.pairs_.begin(),
                        o.pairs_.end(), std::back_inserter(meet));
  pairs_ = std::move(meet);
  return pairs_.size() != before;
}

bool PairSet::SubsetOf(const PairSet& o) const {
  if (o.top_) return true;
  if (top_) return false;
  return std::includes(o.pairs_.begin(), o.pairs_.end(), pairs_.begin(),
                       pairs_.end());
}

void PairSet::Widen(int limit) {
  if (top_ || pairs_.size() > static_cast<std::size_t>(limit)) {
    // Must-polarity: dropping pairs loses information, which is the
    // sound direction.
    top_ = false;
    pairs_.clear();
  }
}

bool PairSet::operator==(const PairSet& o) const {
  return top_ == o.top_ && pairs_ == o.pairs_;
}

std::string PairSet::ToString() const {
  if (top_) return "top";
  std::string out = "{";
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat("(", pairs_[i].var, ",", pairs_[i].val, ")");
  }
  out += "}";
  return out;
}

void InterferenceTables::Init(std::size_t num_threads, std::size_t num_vars,
                              std::size_t dom,
                              const std::vector<std::size_t>& edges_per_thread) {
  store_vals.assign(num_threads, std::vector<ValueSet>(num_vars));
  acq.assign(num_vars, std::vector<std::vector<ValueSet>>(
                           dom, std::vector<ValueSet>(num_vars)));
  present.assign(num_vars, std::vector<char>(dom, 0));
  for (std::size_t x = 0; x < num_vars; ++x) present[x][0] = 1;
  edge_store.assign(num_threads, {});
  for (std::size_t t = 0; t < num_threads; ++t) {
    edge_store[t].assign(edges_per_thread[t], ValueSet());
  }
}

void MustTables::Init(std::size_t num_vars, std::size_t dom) {
  // Entries start at top — the vacuous intersection over zero store
  // events — and shrink as events contribute. The init message (val 0)
  // has an empty causal past and no consumptions, pinned here.
  obs.assign(num_vars, std::vector<PairSet>(dom, PairSet::Top()));
  cons.assign(num_vars, std::vector<PairSet>(dom, PairSet::Top()));
  for (std::size_t x = 0; x < num_vars; ++x) {
    obs[x][0] = PairSet();
    cons[x][0] = PairSet();
  }
}

namespace internal {

RelationalContext BuildRelationalContext(const TmaiSystem& sys,
                                         const InterferenceTables& just,
                                         const MustTables& must) {
  RelationalContext rel;
  rel.just = &just;
  rel.must = &must;

  const std::size_t T = sys.threads.size();
  rel.reach.resize(T);
  std::vector<char> unbounded(T, 0);
  for (std::size_t t = 0; t < T; ++t) {
    const Cfa& cfa = *sys.threads[t].cfa;
    const std::size_t n = cfa.num_nodes();
    std::vector<char>& reach = rel.reach[t];
    reach.assign(n * n, 0);
    for (std::size_t a = 0; a < n; ++a) {
      // Reflexive DFS from a.
      std::vector<std::size_t> stack{a};
      reach[a * n + a] = 1;
      while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (EdgeId e : cfa.OutEdges(NodeId(b))) {
          const std::size_t to = cfa.edges()[e.index()].to.index();
          if (!reach[a * n + to]) {
            reach[a * n + to] = 1;
            stack.push_back(to);
          }
        }
      }
    }
    // A replicated thread has unboundedly many instances; a cyclic CFA
    // revisits its store edges. Either way one store edge can emit the
    // same message more than once.
    unbounded[t] = sys.threads[t].replicated || !cfa.IsAcyclic();
  }

  const std::size_t D = static_cast<std::size_t>(sys.dom);
  std::vector<std::vector<int>> count(sys.num_vars, std::vector<int>(D, 0));
  for (std::size_t x = 0; x < sys.num_vars; ++x) {
    count[x][0] = 1;  // the per-variable init dis message
  }
  for (std::size_t t = 0; t < T; ++t) {
    const Cfa& cfa = *sys.threads[t].cfa;
    const int mult = unbounded[t] ? 2 : 1;
    for (std::size_t e = 0; e < cfa.edges().size(); ++e) {
      const CfaEdge& edge = cfa.edges()[e];
      if (!edge.instr.IsStoreLike()) continue;
      const std::size_t y = edge.instr.var.index();
      for (Value w : just.edge_store[t][e].Enumerate(sys.dom)) {
        if (w >= 0 && static_cast<std::size_t>(w) < D) count[y][w] += mult;
      }
    }
  }
  rel.linear.assign(sys.num_vars, std::vector<char>(D, 0));
  for (std::size_t y = 0; y < sys.num_vars; ++y) {
    for (std::size_t w = 0; w < D; ++w) {
      rel.linear[y][w] = count[y][w] <= 1;
    }
  }
  return rel;
}

// Strengthening rounds (full re-fixpoints whose pruning rules read the
// previous round's frozen tables) before giving up. Round 0 — tracking
// without pruning — is not counted.
constexpr int kMaxStrengthenRounds = 3;

TmaiResult RunTmaiRelational(const TmaiSystem& sys, const TmaiGoal& goal,
                             const TmaiOptions& opts) {
  TmaiResult result;
  result.domain_used = Domain::kRelational;

  // Round 0: the tracking fixpoint — obs/cons and the must tables are
  // computed, but nothing is pruned, so the round is a sound
  // over-approximation on its own.
  FixpointRun prev = RunFixpoint(sys, opts, /*track_pairs=*/true, nullptr);
  result.iterations = prev.iterations;
  result.max_disjuncts_seen = prev.max_disjuncts_seen;
  if (!prev.converged) return result;  // kUnknown
  FinishConverged(sys, goal, opts, prev, nullptr, Domain::kRelational,
                  /*emit_certificate=*/true, &result);
  if (result.safe) return result;

  // Strengthening rounds: re-run the full fixpoint with R1/R2 reading
  // the *previous* round's frozen converged tables. Pruning against a
  // converged over-approximation is sound, so every round's verdict
  // stands on its own; a *certificate*, however, is re-validated by
  // certcheck against its own embedded tables, so it is only emitted
  // from a self-stable round (tables identical to the justification it
  // was pruned with — then the checker replays exactly this round).
  TmaiResult safe_result;
  bool have_safe = false;
  for (int round = 1; round <= kMaxStrengthenRounds; ++round) {
    RelationalContext rel =
        BuildRelationalContext(sys, prev.tables, prev.must);
    FixpointRun cur = RunFixpoint(sys, opts, /*track_pairs=*/true, &rel);
    result.strengthen_rounds = round;
    result.iterations += cur.iterations;
    result.max_disjuncts_seen =
        std::max(result.max_disjuncts_seen, cur.max_disjuncts_seen);
    if (!cur.converged) break;  // report the previous converged round
    result.pruned_reads = cur.pruned_reads;
    const bool stable = cur.tables == prev.tables && cur.must == prev.must;
    FinishConverged(sys, goal, opts, cur, &rel, Domain::kRelational,
                    /*emit_certificate=*/stable, &result);
    if (result.safe && stable) return result;
    if (result.safe && !have_safe) {
      // Sound verdict without a self-stable certificate (yet); keep
      // strengthening in the hope a later round stabilizes.
      safe_result = result;
      have_safe = true;
    }
    prev = std::move(cur);
    if (stable) break;  // a fixpoint of the strengthening loop itself
  }
  if (have_safe) {
    safe_result.iterations = result.iterations;
    safe_result.strengthen_rounds = result.strengthen_rounds;
    safe_result.max_disjuncts_seen = result.max_disjuncts_seen;
    return safe_result;
  }
  return result;
}

}  // namespace internal
}  // namespace rapar::tmai
