#include "dlopt/optimize.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"

namespace rapar::dlopt {

DlOptStats& DlOptStats::operator+=(const DlOptStats& o) {
  rules_before += o.rules_before;
  rules_after += o.rules_after;
  unproductive_removed += o.unproductive_removed;
  unreachable_removed += o.unreachable_removed;
  demand_removed += o.demand_removed;
  copy_aliased_removed += o.copy_aliased_removed;
  preds_before += o.preds_before;
  preds_after += o.preds_after;
  return *this;
}

std::string DlOptStats::ToString() const {
  return StrCat("rules ", rules_before, " -> ", rules_after,
                " (unreachable ", unreachable_removed, ", unproductive ",
                unproductive_removed, ", demand ", demand_removed,
                ", aliased ", copy_aliased_removed, ")");
}

namespace {

// Per-predicate, per-position demanded constants; ⊤ ("any value") as soon
// as some occurrence binds the position with a variable. Positions are
// numbered flat (slot = first slot of the predicate + argument index).
// Only a constant that some rule head carries can make a head
// undemanded, so those (slot, constant) pairs are indexed once, from the
// input rules (passes rename body predicates, never heads), and a round
// only flags the pairs that a body atom or the query uses.
class Demand {
 public:
  Demand(const dl::Program& prog, const std::vector<dl::Rule>& rules)
      : base_(prog.num_preds() + 1, 0) {
    for (std::size_t p = 0; p < prog.num_preds(); ++p) {
      base_[p + 1] = base_[p] + prog.pred(p).arity;
    }
    for (const dl::Rule& r : rules) {
      const std::size_t slot = base_[r.head.pred];
      for (std::size_t i = 0; i < r.head.args.size(); ++i) {
        if (r.head.args[i].kind == dl::Term::Kind::kConst) {
          pairs_.push_back(Key(slot + i, r.head.args[i].val));
        }
      }
    }
    std::sort(pairs_.begin(), pairs_.end());
    pairs_.erase(std::unique(pairs_.begin(), pairs_.end()), pairs_.end());
  }

  void Clear() {
    top_.assign(base_.back(), false);
    used_.assign(pairs_.size(), false);
  }

  void AddUse(const dl::Atom& a) {
    const std::size_t slot = base_[a.pred];
    for (std::size_t i = 0; i < a.args.size(); ++i) {
      if (a.args[i].kind == dl::Term::Kind::kConst) {
        const auto it = std::lower_bound(pairs_.begin(), pairs_.end(),
                                         Key(slot + i, a.args[i].val));
        if (it != pairs_.end() && *it == Key(slot + i, a.args[i].val)) {
          used_[static_cast<std::size_t>(it - pairs_.begin())] = true;
        }
      } else {
        top_[slot + i] = true;
      }
    }
  }

  // A head deriving `a` can be consumed: every constant head position is
  // demanded.
  bool HeadDemanded(const dl::Atom& a) const {
    const std::size_t slot = base_[a.pred];
    for (std::size_t i = 0; i < a.args.size(); ++i) {
      if (a.args[i].kind != dl::Term::Kind::kConst) continue;
      if (top_[slot + i]) continue;
      const auto it = std::lower_bound(pairs_.begin(), pairs_.end(),
                                       Key(slot + i, a.args[i].val));
      if (!used_[static_cast<std::size_t>(it - pairs_.begin())]) return false;
    }
    return true;
  }

 private:
  static std::uint64_t Key(std::size_t slot, dl::Sym c) {
    return (static_cast<std::uint64_t>(slot) << 32) | c;
  }

  std::vector<std::size_t> base_;     // [pred] -> first slot; back() = total
  std::vector<std::uint64_t> pairs_;  // head (slot, constant) keys, sorted
  std::vector<bool> top_;             // [slot]
  std::vector<bool> used_;            // [pair index]
};

class Optimizer {
 public:
  Optimizer(dl::Program prog, const dl::Atom& goal,
            const DlOptOptions& options)
      : prog_(std::move(prog)),
        goal_(goal),
        options_(options),
        rules_(prog_.TakeRules()),
        demand_(prog_, rules_) {
    cause_.assign(rules_.size(), RemovalCause::kKept);
  }

  OptimizeResult Run() {
    DlOptStats stats;
    stats.rules_before = rules_.size();
    stats.preds_before = MentionedPreds();

    // Per-pass tracing: every invocation (incl. fixpoint re-runs) is a
    // "dlopt:<pass>" span. A null recorder makes `timed` a plain call.
    auto timed = [this](const char* name, auto&& fn) {
      obs::ScopedSpan span(options_.trace, name);
      return fn();
    };

    // The passes shrink each other's inputs; iterate to fixpoint.
    bool changed = true;
    while (changed) {
      changed = false;
      changed |= timed("dlopt:unproductive", [&] {
        return DropUnproductive(&stats.unproductive_removed);
      });
      changed |= timed("dlopt:unreachable", [&] {
        return DropUnreachable(&stats.unreachable_removed);
      });
      changed |= timed("dlopt:demand", [&] {
        return DropUndemanded(&stats.demand_removed);
      });
      changed |= timed("dlopt:copy_alias", [&] {
        return DropCopyAliases(&stats.copy_aliased_removed);
      });
    }

    // Count before the survivors are moved out of rules_.
    stats.preds_after = MentionedPreds();
    std::vector<dl::Rule> kept;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i)) kept.push_back(std::move(rules_[i]));
    }
    stats.rules_after = kept.size();
    prog_.SetRules(std::move(kept));
    return OptimizeResult{std::move(prog_), std::move(stats),
                          std::move(cause_)};
  }

 private:
  bool Alive(std::size_t i) const {
    return cause_[i] == RemovalCause::kKept;
  }
  std::size_t MentionedPreds() {
    pred_flag_.assign(prog_.num_preds(), false);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      const dl::Rule& r = rules_[i];
      pred_flag_[r.head.pred] = true;
      for (const dl::Atom& a : r.body) pred_flag_[a.pred] = true;
    }
    return static_cast<std::size_t>(
        std::count(pred_flag_.begin(), pred_flag_.end(), true));
  }

  // Groups the alive rules by head predicate into by_head_ (rules of p
  // are by_head_[head_start_[p] .. head_start_[p + 1]), ascending).
  void GroupByHead() {
    head_start_.assign(prog_.num_preds() + 1, 0);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i)) ++head_start_[rules_[i].head.pred + 1];
    }
    for (std::size_t p = 0; p < prog_.num_preds(); ++p) {
      head_start_[p + 1] += head_start_[p];
    }
    by_head_.resize(head_start_.back());
    fill_.assign(head_start_.begin(), head_start_.end() - 1);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i)) by_head_[fill_[rules_[i].head.pred]++] = i;
    }
  }

  // Least fixpoint of "can hold a tuple", value by value: a body atom
  // holds a tuple only if it unifies, position by position, with the head
  // of a productive rule or fact (two constants must be equal, a variable
  // matches anything; repeated variables are not checked), and a rule is
  // productive once each of its body atoms does. A worklist: the body
  // atoms are keyed by (predicate, first-argument constant or "variable")
  // and sorted, each rule counts its unmatched atoms, and a rule that
  // becomes productive visits only the atoms its head can unify with.
  // Natives are ignored, so this over-approximates derivability and
  // removing what it rejects is sound.
  bool DropUnproductive(std::size_t* count) {
    if (atoms_stale_) IndexBodyAtoms();
    matched_.assign(atoms_.size(), false);
    ready_.clear();
    unmatched_.resize(cause_.size());
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      // A removed rule's atoms stay indexed; it can never count down to 0.
      unmatched_[i] =
          Alive(i) ? static_cast<std::uint32_t>(rules_[i].body.size())
                   : kRemoved;
      if (unmatched_[i] == 0) ready_.push_back(static_cast<std::uint32_t>(i));
    }
    while (!ready_.empty()) {
      const dl::Atom& head = rules_[ready_.back()].head;
      ready_.pop_back();
      const std::uint64_t pred = PredKey(head.pred);
      if (head.args.empty() || head.args[0].kind == dl::Term::Kind::kVar) {
        MatchHead(head, pred, pred + kPredStep);
        continue;
      }
      // The atoms with the head's first constant, then those with a
      // variable there (they sort last within the predicate).
      const std::uint64_t c = pred | head.args[0].val;
      MatchHead(head, c, c + 1);
      MatchHead(head, pred | kVarFirst, pred + kPredStep);
    }
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i) && unmatched_[i] != 0) {
        cause_[i] = RemovalCause::kUnproductive;
        ++*count;
        changed = true;
      }
    }
    return changed;
  }

  // Sort key of a body atom: its predicate above bit 33, then bit 32 set
  // when the first argument is a variable (or there is none), else the
  // first argument's constant.
  static constexpr std::uint64_t kVarFirst = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kPredStep = std::uint64_t{1} << 33;
  static constexpr std::uint32_t kRemoved = 0xffffffffu;
  static std::uint64_t PredKey(dl::PredId p) {
    assert(p < (dl::PredId{1} << 31));
    return static_cast<std::uint64_t>(p) << 33;
  }
  static std::uint64_t AtomKey(const dl::Atom& a) {
    if (a.args.empty() || a.args[0].kind == dl::Term::Kind::kVar) {
      return PredKey(a.pred) | kVarFirst;
    }
    return PredKey(a.pred) | a.args[0].val;
  }

  // Sorts the alive rules' body atoms by key into atoms_. Later rounds
  // reuse the index until copy aliasing renames a body predicate; the
  // atoms of rules removed in between stay in it.
  void IndexBodyAtoms() {
    atoms_.clear();
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      const std::vector<dl::Atom>& body = rules_[i].body;
      for (std::size_t k = 0; k < body.size(); ++k) {
        atoms_.push_back(BodyAtom{AtomKey(body[k]),
                                  static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(k)});
      }
    }
    std::sort(atoms_.begin(), atoms_.end(),
              [](const BodyAtom& a, const BodyAtom& b) {
                return a.key < b.key;
              });
    atoms_stale_ = false;
  }

  // Matches `head` against the unmatched body atoms with keys in
  // [from, to), and queues each rule whose last atom this matches.
  void MatchHead(const dl::Atom& head, std::uint64_t from, std::uint64_t to) {
    const auto first = std::lower_bound(
        atoms_.begin(), atoms_.end(), from,
        [](const BodyAtom& a, std::uint64_t k) { return a.key < k; });
    for (auto k = static_cast<std::size_t>(first - atoms_.begin());
         k < atoms_.size() && atoms_[k].key < to; ++k) {
      const BodyAtom& b = atoms_[k];
      if (matched_[k] || !Unifies(head, rules_[b.rule].body[b.atom])) continue;
      matched_[k] = true;
      if (--unmatched_[b.rule] == 0) ready_.push_back(b.rule);
    }
  }

  static bool Unifies(const dl::Atom& head, const dl::Atom& atom) {
    const std::size_t n = std::min(head.args.size(), atom.args.size());
    for (std::size_t i = 0; i < n; ++i) {
      const dl::Term& h = head.args[i];
      const dl::Term& a = atom.args[i];
      if (h.kind == dl::Term::Kind::kConst &&
          a.kind == dl::Term::Kind::kConst && h.val != a.val) {
        return false;
      }
    }
    return true;
  }

  bool DropUnreachable(std::size_t* count) {
    // Backward reachability over alive rules only.
    GroupByHead();
    pred_flag_.assign(prog_.num_preds(), false);  // reachable
    work_.assign(1, goal_.pred);
    pred_flag_[goal_.pred] = true;
    while (!work_.empty()) {
      const dl::PredId p = work_.back();
      work_.pop_back();
      for (std::size_t k = head_start_[p]; k < head_start_[p + 1]; ++k) {
        for (const dl::Atom& a : rules_[by_head_[k]].body) {
          if (!pred_flag_[a.pred]) {
            pred_flag_[a.pred] = true;
            work_.push_back(a.pred);
          }
        }
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i) && !pred_flag_[rules_[i].head.pred]) {
        cause_[i] = RemovalCause::kUnreachable;
        ++*count;
        changed = true;
      }
    }
    return changed;
  }

  bool DropUndemanded(std::size_t* count) {
    demand_.Clear();
    demand_.AddUse(goal_);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      for (const dl::Atom& a : rules_[i].body) demand_.AddUse(a);
    }
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i) && !demand_.HeadDemanded(rules_[i].head)) {
        cause_[i] = RemovalCause::kUndemanded;
        ++*count;
        changed = true;
      }
    }
    return changed;
  }

  // A rule is an identity copy when it derives p(X0..Xn) :- q(X0..Xn)
  // with the head and body argument vectors equal, all distinct
  // variables, and no natives: then p ⊆ q instance-for-instance. When it
  // is also p's *only* derivation (no other rule, no fact) and p is not
  // the query predicate, p ≡ q — rewrite every occurrence of p to q and
  // drop the rule. makeP's dis-chain nop/assume/assign steps have exactly
  // this shape. `body_pred` is the body atom's predicate after the
  // aliases recorded so far.
  static bool IsIdentityCopy(const dl::Rule& r, dl::PredId body_pred) {
    if (r.body.size() != 1 || !r.natives.empty()) return false;
    const dl::Atom& b = r.body[0];
    if (body_pred == r.head.pred) return false;
    if (r.head.args.size() != b.args.size()) return false;
    for (std::size_t i = 0; i < b.args.size(); ++i) {
      const dl::Term& h = r.head.args[i];
      const dl::Term& t = b.args[i];
      if (h.kind != dl::Term::Kind::kVar || t.kind != dl::Term::Kind::kVar) {
        return false;
      }
      if (h.val != t.val) return false;
      for (std::size_t j = 0; j < i; ++j) {
        if (r.head.args[j].val == h.val) return false;  // repeated variable
      }
    }
    return true;
  }

  // The predicate `p` stands for after the aliases recorded in alias_.
  dl::PredId Resolve(dl::PredId p) const {
    while (alias_[p] != p) p = alias_[p];
    return p;
  }

  // One forward sweep over the predicates. Aliasing p removes only p's
  // defining rule and renames body occurrences of p, so no predicate's
  // definition count changes and no rule becomes an identity copy that
  // was not one before: a predicate skipped earlier in the sweep stays
  // ineligible, and the sweep aliases exactly the predicates (in the same
  // order) that a rescan after every alias would. The renaming is applied
  // to the alive rules once, at the end.
  bool DropCopyAliases(std::size_t* count) {
    // Defining-rule census over the alive rules (facts included).
    defs_.assign(prog_.num_preds(), 0);
    def_rule_.resize(prog_.num_preds());
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      ++defs_[rules_[i].head.pred];
      def_rule_[rules_[i].head.pred] = i;
    }
    alias_.resize(prog_.num_preds());
    for (std::size_t p = 0; p < alias_.size(); ++p) {
      alias_[p] = static_cast<dl::PredId>(p);
    }
    bool changed = false;
    for (std::size_t p = 0; p < prog_.num_preds(); ++p) {
      if (defs_[p] != 1 || p == goal_.pred) continue;
      const dl::Rule& r = rules_[def_rule_[p]];
      if (r.body.size() != 1) continue;
      const dl::PredId q = Resolve(r.body[0].pred);
      if (!IsIdentityCopy(r, q)) continue;
      cause_[def_rule_[p]] = RemovalCause::kCopyAliased;
      ++*count;
      alias_[p] = q;
      changed = true;
    }
    if (!changed) return false;
    for (std::size_t j = 0; j < cause_.size(); ++j) {
      if (!Alive(j)) continue;
      for (dl::Atom& a : rules_[j].body) a.pred = Resolve(a.pred);
    }
    atoms_stale_ = true;  // pass 1's index is keyed by body predicates
    return true;
  }

  dl::Program prog_;  // rules moved out into rules_; tables stay
  const dl::Atom goal_;
  const DlOptOptions& options_;
  // Aliasing rewrites these in place; indices match the input program's
  // rule list (and cause_).
  std::vector<dl::Rule> rules_;
  std::vector<RemovalCause> cause_;
  // Scratch reused across passes and rounds.
  Demand demand_;
  // One flag per predicate: mentioned or reachable, depending on the
  // pass using it.
  std::vector<bool> pred_flag_;
  std::vector<dl::PredId> work_;
  // Pass 1: the body atom index, sorted by key, with each atom's rule and
  // position, and a per-round matched flag per atom; per rule, its
  // unmatched atoms; the rules found productive whose heads are still to
  // match.
  struct BodyAtom {
    std::uint64_t key;
    std::uint32_t rule;
    std::uint32_t atom;
  };
  bool atoms_stale_ = true;
  std::vector<BodyAtom> atoms_;
  std::vector<bool> matched_;
  std::vector<std::uint32_t> unmatched_;
  std::vector<std::uint32_t> ready_;
  std::vector<std::size_t> head_start_;
  std::vector<std::size_t> fill_;
  std::vector<std::size_t> by_head_;
  std::vector<std::size_t> defs_;
  std::vector<std::size_t> def_rule_;
  std::vector<dl::PredId> alias_;
};

}  // namespace

OptimizeResult OptimizeForQuery(dl::Program prog, const dl::Atom& goal,
                                const DlOptOptions& options) {
  assert(goal.pred < prog.num_preds());
  Optimizer opt(std::move(prog), goal, options);
  return opt.Run();
}

}  // namespace rapar::dlopt
