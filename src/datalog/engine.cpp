#include "datalog/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

namespace rapar::dl {

// --- database ---------------------------------------------------------------

std::size_t Database::Hash(const std::vector<Sym>& tuple) {
  TupleHash h;
  for (const Sym s : tuple) h.Add(s);
  return h.Value();
}

std::size_t Database::HashCells(const Ext& e, std::size_t ti) {
  TupleHash h;
  const Sym* row = e.pool.data() + ti * e.arity;
  for (std::size_t c = 0; c < e.arity; ++c) h.Add(row[c]);
  return h.Value();
}

bool Database::CellsEqual(const Ext& e, std::size_t ti,
                          const std::vector<Sym>& tuple) {
  const Sym* row = e.pool.data() + ti * e.arity;
  for (std::size_t c = 0; c < e.arity; ++c) {
    if (row[c] != tuple[c]) return false;
  }
  return true;
}

std::uint32_t Database::SlotOf(std::size_t hash, std::size_t mask,
                               std::size_t ti) {
  return (static_cast<std::uint32_t>(hash >> 32) &
          ~static_cast<std::uint32_t>(mask)) |
         static_cast<std::uint32_t>(ti + 1);
}

void Database::RebuildSlots(Ext& e) {
  std::size_t cap = e.slots.size() < 16 ? 16 : e.slots.size();
  while (cap < (e.n + 1) * 2) cap <<= 1;
  e.slots.assign(cap, kEmptySlot);
  const std::size_t mask = cap - 1;
  for (std::size_t ti = 0; ti < e.n; ++ti) {
    const std::size_t hash = HashCells(e, ti);
    std::size_t i = hash & mask;
    while (e.slots[i] != kEmptySlot) i = (i + 1) & mask;
    e.slots[i] = SlotOf(hash, mask, ti);
  }
}

// At load a, linear probing costs about (1 + 1/(1-a))/2 probes for a hit
// and (1 + 1/(1-a)^2)/2 for a miss: 1.5 and 2.5 at the half load kept
// here, 4.5 and 32.5 at 7/8. Most emissions are duplicates. A probe
// reads the pool only when the slot's hash bits match.
std::size_t Database::FindSlot(const Ext& e, const std::vector<Sym>& tuple,
                               std::size_t hash) {
  const std::size_t mask = e.slots.size() - 1;
  const std::uint32_t id_mask = static_cast<std::uint32_t>(mask);
  const std::uint32_t bits = SlotOf(hash, mask, 0) & ~id_mask;
  std::size_t i = hash & mask;
  for (std::uint32_t s; (s = e.slots[i]) != kEmptySlot; i = (i + 1) & mask) {
    if ((s & ~id_mask) == bits && CellsEqual(e, (s & id_mask) - 1, tuple)) {
      break;
    }
  }
  return i;
}

bool Database::Insert(PredId pred, const std::vector<Sym>& tuple) {
  Ext& e = exts_[pred];
  if (e.n == 0 && e.arity != tuple.size()) {
    // First tuple since the last reset: adopt this arity.
    e.arity = static_cast<std::uint32_t>(tuple.size());
    e.pool.clear();
  }
  assert(e.arity == tuple.size() && "tuple arity mismatch");
  // Grow at half load (also covers the empty table).
  if ((e.n + 1) * 2 > e.slots.size()) RebuildSlots(e);
  const std::size_t hash = Hash(tuple);
  const std::size_t i = FindSlot(e, tuple, hash);
  if (e.slots[i] != kEmptySlot) return false;
  e.slots[i] = SlotOf(hash, e.slots.size() - 1, e.n);
  e.pool.insert(e.pool.end(), tuple.begin(), tuple.end());
  ++e.n;
  return true;
}

bool Database::Contains(PredId pred, const std::vector<Sym>& tuple) const {
  const Ext& e = exts_[pred];
  if (e.n == 0 || e.slots.empty()) return false;
  if (e.arity != tuple.size()) return false;
  return e.slots[FindSlot(e, tuple, Hash(tuple))] != kEmptySlot;
}

void Database::Row(PredId pred, std::size_t ti, std::vector<Sym>* out) const {
  const Sym* row = At(pred, ti);
  out->assign(row, row + exts_[pred].arity);
}

std::vector<std::vector<Sym>> Database::Tuples(PredId pred) const {
  const Ext& e = exts_[pred];
  std::vector<std::vector<Sym>> out(e.n);
  for (std::size_t ti = 0; ti < e.n; ++ti) Row(pred, ti, &out[ti]);
  return out;
}

void Database::Reset(std::size_t num_preds) {
  exts_.resize(num_preds);
  for (Ext& e : exts_) {
    e.n = 0;
    e.pool.clear();
    std::fill(e.slots.begin(), e.slots.end(), kEmptySlot);
  }
}

namespace {

// Rule-local variable binding frame. Every bound slot is on the trail, so
// undoing the trail resets the frame: a reset costs the bindings made
// since the last one, not the rule's width. Each slot carries its own
// bound flag, so every Sym value (including a caller-defined native's
// output) is a legal binding.
class Bindings {
 public:
  // Unbinds everything and makes room for variables 0..num_vars-1.
  void Reset(std::size_t num_vars) {
    Undo(0);
    if (slots_.size() < num_vars) slots_.resize(num_vars);
  }
  bool Bound(VarSym v) const { return slots_[v].bound; }
  Sym Get(VarSym v) const { return slots_[v].val; }
  void Bind(VarSym v, Sym s) {
    slots_[v] = Slot{s, true};
    trail_.push_back(v);
  }
  std::size_t Mark() const { return trail_.size(); }
  void Undo(std::size_t mark) {
    while (trail_.size() > mark) {
      slots_[trail_.back()].bound = false;
      trail_.pop_back();
    }
  }

 private:
  struct Slot {
    Sym val = 0;
    bool bound = false;
  };
  std::vector<Slot> slots_;
  std::vector<VarSym> trail_;
};

// Unifies a stored tuple (std::vector<Sym> or a pool row — anything
// indexable by argument position) against `pattern` (the atom's args)
// under `env`. ValidateProgram's arity checks guarantee the sizes line up.
template <typename Row>
bool Match(const std::vector<Term>& pattern, const Row& tuple, Bindings& env) {
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const Term& t = pattern[i];
    if (t.kind == Term::Kind::kConst) {
      if (t.val != tuple[i]) return false;
    } else if (env.Bound(t.val)) {
      if (env.Get(t.val) != tuple[i]) return false;
    } else {
      env.Bind(t.val, tuple[i]);
    }
  }
  return true;
}

}  // namespace

// --- reusable evaluator state -----------------------------------------------

// A lazy index over one predicate's extension for one bound-position
// signature (bit i set = argument i is a lookup key). `keys` is a
// linear-probing table of the distinct keys, at most half full; a key is
// compared against its first tuple in the pool, so no key is stored.
// Each key's tuples are linked in ascending id through `next`, which
// has one entry per tuple folded in so far; probes catch the index up
// incrementally before reading, so emission stays O(1) and only
// signatures a join actually demands are ever built.
struct ArgIndex {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Key {
    std::uint32_t head = kNone;  // first tuple id; kNone = empty slot
    std::uint32_t tail = kNone;  // last tuple id
    std::uint32_t count = 0;     // tuples in the chain
  };

  explicit ArgIndex(std::uint64_t m) : mask(m) {
    for (std::uint32_t i = 0; m != 0; m >>= 1, ++i) {
      if (m & 1) pos.push_back(i);
    }
  }

  void Clear() {
    num_keys = 0;
    std::fill(keys.begin(), keys.end(), Key{});
    next.clear();
  }

  // The key table slot of the key whose j-th bound value is `val(j)`
  // (hashed to `hash`), or the empty slot where it would go.
  template <typename Val>
  std::size_t Find(const Database& db, PredId pred, Val val,
                   std::size_t hash) const {
    const std::size_t m = keys.size() - 1;
    std::size_t i = hash & m;
    for (; keys[i].head != kNone; i = (i + 1) & m) {
      const Sym* rep = db.At(pred, keys[i].head);
      std::size_t j = 0;
      while (j < pos.size() && rep[pos[j]] == val(j)) ++j;
      if (j == pos.size()) break;
    }
    return i;
  }

  std::size_t HashOf(const Sym* row) const {
    TupleHash h;
    for (const std::uint32_t p : pos) h.Add(row[p]);
    return h.Value();
  }

  // Folds tuples [next.size(), n) into their keys' chains.
  void CatchUp(const Database& db, PredId pred, std::size_t n) {
    for (std::size_t ti = next.size(); ti < n; ++ti) {
      if ((num_keys + 1) * 2 > keys.size()) Grow(db, pred);
      const Sym* row = db.At(pred, ti);
      Key& k = keys[Find(
          db, pred, [&](std::size_t j) { return row[pos[j]]; },
          HashOf(row))];
      const auto id = static_cast<std::uint32_t>(ti);
      if (k.head == kNone) {
        k.head = id;
        ++num_keys;
      } else {
        next[k.tail] = id;
      }
      k.tail = id;
      ++k.count;
      next.push_back(kNone);
    }
  }

  // Doubles the key table (16 slots at first) and re-places every key.
  void Grow(const Database& db, PredId pred) {
    std::vector<Key> old(keys.empty() ? 16 : keys.size() * 2);
    old.swap(keys);
    const std::size_t m = keys.size() - 1;
    for (const Key& k : old) {
      if (k.head == kNone) continue;
      std::size_t i = HashOf(db.At(pred, k.head)) & m;
      while (keys[i].head != kNone) i = (i + 1) & m;
      keys[i] = k;
    }
  }

  const std::uint64_t mask;
  std::vector<std::uint32_t> pos;  // the set bits of `mask`, ascending
  std::size_t num_keys = 0;
  std::vector<Key> keys;
  std::vector<std::uint32_t> next;  // per tuple id: the next with its key
};

// Where a popped tuple of one predicate is joined: the body occurrences
// that can match it. When every occurrence holds a constant at argument
// `pos` (etp's node, emp/dmp's variable tag), the predicate's rule_index
// entry is grouped into one bucket per constant, each bucket in
// rule_index order: bucket b holds the occurrences [starts[b],
// starts[b + 1]) with constant keys[b]. A tuple visits only the bucket of
// its own constant at `pos`, which skips exactly the occurrences whose
// delta match would fail on that constant. Memory is linear in the
// program's body occurrences.
struct Dispatch {
  static constexpr std::uint32_t kLinear = 0xffffffffu;
  std::uint32_t pos = kLinear;  // kLinear: visit every occurrence
  std::vector<Sym> keys;        // ascending, distinct
  std::vector<std::uint32_t> starts;
};

// State that persists across Engine::Solve calls: the database, worklist,
// binding frames and join indexes keep their allocations.
struct EvaluatorArena {
  Database db{0};
  std::deque<std::pair<PredId, std::uint32_t>> work;
  // pred -> (rule index, body position) of every body occurrence, in rule
  // order; grouped into buckets where the predicate dispatches.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      rule_index;
  std::vector<Dispatch> dispatch;  // per predicate
  // SetUpDispatch scratch.
  std::vector<std::pair<Sym, std::uint32_t>> dispatch_sort;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dispatch_occ;
  std::vector<std::uint32_t> max_var;  // per rule
  // pred -> its indexes, one per signature mask in the order first
  // probed. Heap-allocated so a probe's index stays put while a deeper
  // probe adds one to the same predicate.
  std::vector<std::vector<std::unique_ptr<ArgIndex>>> indexes;
  Bindings env;
  std::vector<Sym> keybuf;
  std::vector<Sym> popbuf;     // worklist-pop tuple buffer
  std::vector<Sym> emit_buf;   // head-tuple buffer
  std::vector<Sym> native_in;  // a kCall native's inputs
};

namespace {

class Evaluator {
 public:
  Evaluator(const Program& prog, const Atom* goal, EvalStats* stats,
            const EvalOptions& options, EvaluatorArena& a)
      : prog_(prog), goal_(goal), stats_(stats), options_(options), a_(a) {}

  // Returns true if the goal was derived (always false without a goal or
  // with early_exit off; Query's fallback membership check covers those).
  bool Run() {
    SetUpRules();
    goal_tuple_.clear();
    if (goal_ != nullptr) {
      for (const Term& t : goal_->args) goal_tuple_.push_back(t.val);
    }
    if (SeedFacts()) return true;
    // Body-less rules with natives seed like facts, after native eval.
    for (const Rule& r : prog_.rules()) {
      if (!r.body.empty() || r.IsFact()) continue;
      a_.env.Reset(NumVars(r));
      if (EvalNativesAndEmit(r)) return true;
    }
    return DrainWorklist();
  }

 private:
  // Prepares per-rule metadata and the body-occurrence index.
  void SetUpRules() {
    const std::size_t np = prog_.num_preds();
    a_.rule_index.resize(np);
    for (auto& v : a_.rule_index) v.clear();
    a_.max_var.clear();
    for (std::size_t ri = 0; ri < prog_.rules().size(); ++ri) {
      const Rule& r = prog_.rules()[ri];
      a_.max_var.push_back(static_cast<std::uint32_t>(NumVars(r)));
      for (std::size_t bi = 0; bi < r.body.size(); ++bi) {
        a_.rule_index[r.body[bi].pred].push_back(
            {static_cast<std::uint32_t>(ri), static_cast<std::uint32_t>(bi)});
      }
    }
    a_.dispatch.resize(np);
    for (std::size_t p = 0; p < np; ++p) SetUpDispatch(static_cast<PredId>(p));
    a_.indexes.resize(np);
    a_.work.clear();
  }

  // Picks predicate p's dispatch position — the first argument position
  // at which every body occurrence holds a constant — and groups its
  // rule_index entry into per-constant buckets (see Dispatch).
  void SetUpDispatch(PredId p) {
    Dispatch& d = a_.dispatch[p];
    d.pos = Dispatch::kLinear;
    auto& occ = a_.rule_index[p];
    if (occ.empty()) return;
    auto arg = [&](const std::pair<std::uint32_t, std::uint32_t>& o,
                   std::size_t i) -> const Term& {
      return prog_.rules()[o.first].body[o.second].args[i];
    };
    const std::size_t arity = prog_.pred(p).arity;
    std::size_t pos = 0;
    auto all_const = [&](std::size_t i) {
      for (const auto& o : occ) {
        if (arg(o, i).kind != Term::Kind::kConst) return false;
      }
      return true;
    };
    while (pos < arity && !all_const(pos)) ++pos;
    if (pos == arity) return;
    d.pos = static_cast<std::uint32_t>(pos);
    // Sorting (constant, rule_index position) keeps each bucket in
    // rule_index order.
    a_.dispatch_sort.clear();
    for (std::size_t k = 0; k < occ.size(); ++k) {
      a_.dispatch_sort.push_back(
          {arg(occ[k], pos).val, static_cast<std::uint32_t>(k)});
    }
    std::sort(a_.dispatch_sort.begin(), a_.dispatch_sort.end());
    d.keys.clear();
    d.starts.clear();
    a_.dispatch_occ.clear();
    for (const auto& [c, k] : a_.dispatch_sort) {
      if (d.keys.empty() || d.keys.back() != c) {
        d.keys.push_back(c);
        d.starts.push_back(static_cast<std::uint32_t>(a_.dispatch_occ.size()));
      }
      a_.dispatch_occ.push_back(occ[k]);
    }
    d.starts.push_back(static_cast<std::uint32_t>(occ.size()));
    occ.swap(a_.dispatch_occ);
  }

  // Joins each newly derived tuple as the delta of every body occurrence
  // of its predicate that its dispatch bucket holds. Returns true when the
  // goal was emitted.
  bool DrainWorklist() {
    while (!a_.work.empty()) {
      const auto [pred, idx] = a_.work.front();
      a_.work.pop_front();
      // Copied out: the joins below may reallocate this predicate's pool.
      a_.db.Row(pred, idx, &a_.popbuf);
      const auto& occ = a_.rule_index[pred];
      std::size_t begin = 0;
      std::size_t end = occ.size();
      if (const Dispatch& d = a_.dispatch[pred]; d.pos != Dispatch::kLinear) {
        const Sym c = a_.popbuf[d.pos];
        const auto it = std::lower_bound(d.keys.begin(), d.keys.end(), c);
        if (it == d.keys.end() || *it != c) continue;
        const std::size_t b = static_cast<std::size_t>(it - d.keys.begin());
        begin = d.starts[b];
        end = d.starts[b + 1];
      }
      for (std::size_t k = begin; k < end; ++k) {
        const auto [ri, bi] = occ[k];
        const Rule& r = prog_.rules()[ri];
        a_.env.Reset(a_.max_var[ri]);
        if (!Match(r.body[bi].args, a_.popbuf, a_.env)) continue;
        if (Join(r, bi, 0)) return true;
      }
    }
    return false;
  }

  // Seeds the EDB into an emptied database: every fact is inserted in
  // program order, and every index is emptied (its allocations stay).
  // Returns true when a fact is the goal and evaluation can stop
  // immediately.
  bool SeedFacts() {
    a_.db.Reset(prog_.num_preds());
    for (auto& per_pred : a_.indexes) {
      for (auto& ix : per_pred) ix->Clear();
    }
    total_tuples_ = 0;
    for (const Rule& r : prog_.rules()) {
      if (!r.IsFact()) continue;
      a_.env.Reset(0);
      if (EvalNativesAndEmit(r)) return true;
    }
    return false;
  }

  // Joins the body atoms from position `bi` on in body order, skipping
  // the delta's position `skip`; then evaluates natives and emits the
  // head. makeP's rules have at most two body atoms (DESIGN.md §7), so
  // with the delta fixed at most one atom is left and no order is to be
  // chosen.
  bool Join(const Rule& r, std::size_t skip, std::size_t bi) {
    if (bi == skip) ++bi;
    if (bi == r.body.size()) return EvalNativesAndEmit(r);
    const Atom& atom = r.body[bi];
    // Size snapshot: the recursion below can Emit into atom.pred, growing
    // its extension. Tuples inserted mid-join are joined later via their
    // own worklist delta.
    const std::size_t n = a_.db.Size(atom.pred);
    if (options_.engine.use_index && atom.args.size() <= 64) {
      std::uint64_t mask = 0;
      a_.keybuf.clear();
      TupleHash key_hash;
      for (std::size_t i = 0; i < atom.args.size(); ++i) {
        const Term& t = atom.args[i];
        Sym v;
        if (t.kind == Term::Kind::kConst) {
          v = t.val;
        } else if (a_.env.Bound(t.val)) {
          v = a_.env.Get(t.val);
        } else {
          continue;
        }
        mask |= std::uint64_t{1} << i;
        a_.keybuf.push_back(v);
        key_hash.Add(v);
      }
      if (mask != 0) {
        return ProbeIndexed(r, skip, bi, mask, key_hash.Value(), n);
      }
    }
    for (std::size_t ti = 0; ti < n; ++ti) {
      if (stats_ != nullptr) ++stats_->join_attempts;
      const std::size_t mark = a_.env.Mark();
      if (Match(atom.args, a_.db.At(atom.pred, ti), a_.env)) {
        if (Join(r, skip, bi + 1)) return true;
      }
      a_.env.Undo(mark);
    }
    return false;
  }

  // Indexed probe of body atom `bi`: candidates come from the (pred,
  // mask) index keyed by the bound argument values in `keybuf` (hashed to
  // `hash`) instead of a full scan. The walk stops at `n`: deeper probes
  // may catch the index up and extend this chain past the snapshot.
  bool ProbeIndexed(const Rule& r, std::size_t skip, std::size_t bi,
                    std::uint64_t mask, std::size_t hash, std::size_t n) {
    const Atom& atom = r.body[bi];
    ArgIndex& ix = IndexFor(atom.pred, mask);
    if (ix.next.size() < n) ix.CatchUp(a_.db, atom.pred, n);
    if (stats_ != nullptr) ++stats_->index_probes;
    if (ix.num_keys == 0) return false;  // the key table may not exist yet
    // A copy: deeper probes may regrow the key table.
    const ArgIndex::Key key = ix.keys[ix.Find(
        a_.db, atom.pred, [&](std::size_t j) { return a_.keybuf[j]; },
        hash)];
    if (key.head == ArgIndex::kNone) return false;
    // Caught up to n, the chain holds exactly the candidates below n.
    if (stats_ != nullptr) stats_->index_hits += key.count;
    for (std::uint32_t ti = key.head; ti < n; ti = ix.next[ti]) {
      if (stats_ != nullptr) ++stats_->join_attempts;
      const std::size_t mark = a_.env.Mark();
      if (Match(atom.args, a_.db.At(atom.pred, ti), a_.env)) {
        if (Join(r, skip, bi + 1)) return true;
      }
      a_.env.Undo(mark);
    }
    return false;
  }

  // The predicate's index for `mask`, built (empty) on first demand.
  ArgIndex& IndexFor(PredId pred, std::uint64_t mask) {
    auto& list = a_.indexes[pred];
    for (const auto& ix : list) {
      if (ix->mask == mask) return *ix;
    }
    if (stats_ != nullptr) ++stats_->index_builds;
    list.push_back(std::make_unique<ArgIndex>(mask));
    return *list.back();
  }

  Sym Resolve(const Term& t) const {
    // A variable is guaranteed bound by ValidateProgram.
    assert((t.kind == Term::Kind::kConst || a_.env.Bound(t.val)) &&
           "unsafe rule: unbound variable");
    return t.kind == Term::Kind::kConst ? t.val : a_.env.Get(t.val);
  }

  // Runs the rule's natives in order, then emits the head. Each native
  // yields at most one binding, so one loop with a single undo mark
  // replaces backtracking.
  bool EvalNativesAndEmit(const Rule& r) {
    const std::size_t mark = a_.env.Mark();
    for (const Native& n : r.natives) {
      Sym out = 0;
      const auto in = [&](std::size_t i) { return Resolve(n.inputs[i]); };
      bool ok = EvalNative(n, in, a_.native_in, &out);
      if (ok && n.output.has_value()) {
        if (!a_.env.Bound(*n.output)) {
          a_.env.Bind(*n.output, out);
        } else {
          ok = a_.env.Get(*n.output) == out;
        }
      }
      if (!ok) {
        a_.env.Undo(mark);
        return false;
      }
    }
    const bool found = Emit(r);
    if (!found) a_.env.Undo(mark);
    return found;
  }

  bool Emit(const Rule& r) {
    std::vector<Sym>& tuple = a_.emit_buf;
    tuple.resize(r.head.args.size());
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      tuple[i] = Resolve(r.head.args[i]);
    }
    if (stats_ != nullptr) ++stats_->rule_firings;
    if (!a_.db.Insert(r.head.pred, tuple)) return false;
    if (stats_ != nullptr) ++stats_->tuples;
    ++total_tuples_;
    const std::size_t idx = a_.db.Size(r.head.pred) - 1;
    a_.work.push_back({r.head.pred, static_cast<std::uint32_t>(idx)});
    if (goal_ != nullptr && options_.early_exit &&
        r.head.pred == goal_->pred && tuple == goal_tuple_) {
      if (stats_ != nullptr) stats_->goal_found = true;
      return true;
    }
    if (options_.max_tuples != 0 && total_tuples_ > options_.max_tuples) {
      throw BudgetExceeded(options_.max_tuples);
    }
    return false;
  }

  const Program& prog_;
  const Atom* goal_;
  EvalStats* stats_;
  const EvalOptions& options_;
  EvaluatorArena& a_;
  std::vector<Sym> goal_tuple_;
  std::size_t total_tuples_ = 0;
};

// Shared driver behind Query/Eval/Engine::Solve. `goal` may be null (full
// fixpoint).
bool RunEvaluation(const Program& prog, const Atom* goal, EvalStats* stats,
                   const EvalOptions& options, EvaluatorArena& arena) {
  ValidateProgram(prog);
  if (goal != nullptr) ValidateGoal(prog, *goal);
  Evaluator ev(prog, goal, stats, options, arena);
  if (ev.Run()) return true;
  if (goal == nullptr) return false;
  // Fixpoint reached without early exit; check membership.
  std::vector<Sym> tuple;
  tuple.reserve(goal->args.size());
  for (const Term& t : goal->args) tuple.push_back(t.val);
  const bool found = arena.db.Contains(goal->pred, tuple);
  if (stats != nullptr && found) stats->goal_found = true;
  return found;
}

}  // namespace

bool Query(const Program& prog, const Atom& goal, EvalStats* stats,
           const EvalOptions& options) {
  if (stats != nullptr) *stats = EvalStats{};
  EvaluatorArena arena;
  return RunEvaluation(prog, &goal, stats, options, arena);
}

Database Eval(const Program& prog, EvalStats* stats,
              const EvalOptions& options) {
  if (stats != nullptr) *stats = EvalStats{};
  EvalOptions opts = options;
  opts.early_exit = false;
  EvaluatorArena arena;
  RunEvaluation(prog, nullptr, stats, opts, arena);
  return std::move(arena.db);
}

Engine::Engine() : arena_(std::make_unique<EvaluatorArena>()) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

bool Engine::Solve(const Program& prog, const Atom& goal,
                   const EvalOptions& options) {
  last_ = EvalStats{};
  // A budget blown mid-evaluation throws with last_ holding what the
  // aborted solve did.
  return RunEvaluation(prog, &goal, &last_, options, *arena_);
}

}  // namespace rapar::dl
