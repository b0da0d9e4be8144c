#include "datalog/cache.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/hash.h"
#include "common/interner.h"

namespace rapar::dl {

namespace {

// Ground atoms are interned as flat vectors [pred, arg0, arg1, ...].
using GroundAtom = std::vector<Sym>;
using AtomId = std::uint32_t;

class CacheSearch {
 public:
  CacheSearch(const Program& prog, const Atom& goal, int k,
              const CacheQueryOptions& options)
      : prog_(prog), k_(k), options_(options) {
    GroundAtom g;
    g.push_back(goal.pred);
    for (const Term& t : goal.args) g.push_back(t.val);  // ground: validated
    goal_id_ = atoms_.Intern(std::move(g));
  }

  CacheQueryResult Run() {
    CacheQueryResult result;
    if (k_ <= 0) return result;

    std::unordered_set<std::vector<AtomId>, rapar::VectorHash<AtomId>> seen;
    std::deque<std::vector<AtomId>> frontier;
    std::vector<AtomId> empty;
    seen.insert(empty);
    frontier.push_back(std::move(empty));

    while (!frontier.empty()) {
      std::vector<AtomId> cache = std::move(frontier.front());
      frontier.pop_front();

      // Enumerate Add successors: rule instantiations with body ⊆ cache.
      std::vector<AtomId> heads;
      for (const Rule& r : prog_.rules()) {
        EnumerateInstantiations(r, cache, heads);
      }
      for (AtomId h : heads) {
        // An atom counts as inferred when the Add completes, i.e. when it
        // fits into the cache (matching the cacheK encoding of
        // CacheToLinear, whose `found` rules read the goal from a slot).
        if (std::binary_search(cache.begin(), cache.end(), h)) continue;
        if (static_cast<int>(cache.size()) >= k_) continue;
        if (h == goal_id_) {
          result.derivable = true;
          result.states = seen.size();
          return result;
        }
        std::vector<AtomId> next = cache;
        next.insert(std::lower_bound(next.begin(), next.end(), h), h);
        if (seen.insert(next).second) frontier.push_back(std::move(next));
      }
      // Drop successors.
      for (std::size_t i = 0; i < cache.size(); ++i) {
        std::vector<AtomId> next = cache;
        next.erase(next.begin() + i);
        if (seen.insert(next).second) frontier.push_back(std::move(next));
      }
      if (seen.size() > options_.max_states) {
        result.aborted = true;
        break;
      }
    }
    result.states = seen.size();
    return result;
  }

 private:
  // Collects the head atom ids of all instantiations of `r` whose body is
  // contained in `cache`.
  void EnumerateInstantiations(const Rule& r,
                               const std::vector<AtomId>& cache,
                               std::vector<AtomId>& out) {
    std::vector<std::optional<Sym>> env(NumVars(r));
    MatchBody(r, cache, 0, env, out);
  }

  void MatchBody(const Rule& r, const std::vector<AtomId>& cache,
                 std::size_t at, std::vector<std::optional<Sym>>& env,
                 std::vector<AtomId>& out) {
    if (at == r.body.size()) {
      // Natives, then head. ValidateProgram guarantees every variable
      // read here is bound.
      const auto value = [&](const Term& t) {
        return t.kind == Term::Kind::kConst ? t.val : *env[t.val];
      };
      std::vector<VarSym> bound;
      bool ok = true;
      for (const Native& n : r.natives) {
        Sym o = 0;
        const auto in = [&](std::size_t i) { return value(n.inputs[i]); };
        if (!EvalNative(n, in, native_in_, &o)) {
          ok = false;
          break;
        }
        if (n.output.has_value()) {
          if (env[*n.output].has_value()) {
            if (*env[*n.output] != o) {
              ok = false;
              break;
            }
          } else {
            env[*n.output] = o;
            bound.push_back(*n.output);
          }
        }
      }
      if (ok) {
        GroundAtom h;
        h.push_back(r.head.pred);
        for (const Term& t : r.head.args) h.push_back(value(t));
        out.push_back(atoms_.Intern(std::move(h)));
      }
      for (VarSym v : bound) env[v] = std::nullopt;
      return;
    }
    const Atom& pattern = r.body[at];
    for (AtomId aid : cache) {
      const GroundAtom& ga = atoms_.Get(aid);
      if (ga[0] != pattern.pred) continue;
      if (ga.size() != pattern.args.size() + 1) continue;
      std::vector<VarSym> bound;
      bool ok = true;
      for (std::size_t i = 0; i < pattern.args.size(); ++i) {
        const Term& t = pattern.args[i];
        const Sym s = ga[i + 1];
        if (t.kind == Term::Kind::kConst) {
          if (t.val != s) {
            ok = false;
            break;
          }
        } else if (env[t.val].has_value()) {
          if (*env[t.val] != s) {
            ok = false;
            break;
          }
        } else {
          env[t.val] = s;
          bound.push_back(t.val);
        }
      }
      if (ok) MatchBody(r, cache, at + 1, env, out);
      for (VarSym v : bound) env[v] = std::nullopt;
    }
  }

  const Program& prog_;
  const int k_;
  const CacheQueryOptions& options_;
  Interner<GroundAtom, rapar::VectorHash<Sym>> atoms_;
  AtomId goal_id_ = 0;
  std::vector<Sym> native_in_;
};

}  // namespace

CacheQueryResult CacheQuery(const Program& prog, const Atom& goal, int k,
                            const CacheQueryOptions& options) {
  ValidateProgram(prog);
  ValidateGoal(prog, goal);
  return CacheSearch(prog, goal, k, options).Run();
}

std::optional<int> MinimalCacheSize(const Program& prog, const Atom& goal,
                                    int limit,
                                    const CacheQueryOptions& options) {
  ValidateProgram(prog);
  ValidateGoal(prog, goal);
  for (int k = 1; k <= limit; ++k) {
    CacheQueryResult r = CacheSearch(prog, goal, k, options).Run();
    if (r.derivable) return k;
    if (r.aborted) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace rapar::dl
