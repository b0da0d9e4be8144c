// Thread-modular abstract interpretation (TMAI) over the RA semantics.
//
// A sound over-approximating analysis in the style of Sharma & Sharma,
// "Thread-modular Analysis of Release-Acquire Concurrency": each thread
// is analyzed in isolation against an interference summary of every
// other thread, and the summaries are iterated to a joint fixpoint.
//
// Abstraction. A per-thread abstract state maps
//   - each register r to a ValueSet over-approximating the values r may
//     hold, and
//   - each shared variable x to a "view" ValueSet over-approximating the
//     values any load of x may return at this program point (the
//     message-buffer abstraction: the lattice join of all release-stores
//     the thread may observe under RA, plus the init message 0 while the
//     thread's view can still point below every store).
// States are kept as small disjunctive sets per CFA node so that load
// case-splits (r := x picks ONE value) retain relational precision
// between a loaded value and the view refinement it implies.
//
// RA acquire refinement. Every store edge publishes an acquire snapshot
// ACQ(x,v): for each variable y, the join over all abstract stores of v
// to x of (writer view of y at the store) ∪ (writer's own later stores
// of y) ∪ (all stores of y by other threads). Under RA, a thread that
// reads (x,v) joins the writer's view, so afterwards it can only read
// y-values with timestamps at or above the writer's — a subset of
// ACQ(x,v)(y). Loads therefore intersect the local view with the
// snapshot, which is what proves message-passing idioms safe. The init
// message (x,0) carries the top snapshot.
//
// Interference fixpoint. Store summaries, acquire snapshots and
// per-edge store sets grow monotonically across rounds; each round
// re-analyzes every thread against the previous round's tables
// (two-phase, so the result is independent of thread order). The
// analysis converges when a full round adds nothing; only then is a
// kSafe answer derived. TMAI never reports unsafe: reaching an assert
// edge in the abstraction merely means "unknown".
#ifndef RAPAR_TMAI_TMAI_H_
#define RAPAR_TMAI_TMAI_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "lang/cfa.h"
#include "simplified/transitions.h"
#include "tmai/domain.h"
#include "tmai/relational.h"

namespace rapar::tmai {

// Which abstract domain the fixpoint runs in. kSmallSet is the
// original non-relational value-set domain; kRelational layers the
// per-variable-pair must analysis of relational.h on top (more
// precise, a few times slower); kAuto runs kSmallSet first and retries
// kRelational only when the small-set fixpoint converged to kUnknown, so
// the fast path stays fast and a fixpoint that hit its iteration bound
// is not run a second time.
enum class Domain {
  kSmallSet,
  kRelational,
  kAuto,
};

// "smallset", "relational" or "auto": the names certificates and the
// domain tables use.
const char* DomainName(Domain d);
// The domain DomainName gives `name`; nullopt for any other name.
std::optional<Domain> ParseDomain(std::string_view name);

struct TmaiOptions {
  // Interference fixpoint rounds before giving up (kUnknown).
  int max_iterations = 64;
  // Joins at one CFA node before states are widened (merge disjuncts,
  // then push oversized value sets to top).
  int widening_delay = 8;
  // Explicit value-set size beyond which a set becomes top.
  int value_set_limit = 16;
  // Abstract domain (see Domain above).
  Domain domain = Domain::kSmallSet;
};

// What "safe" means: assert-edge unreachability (default) or the
// memory-guess query "no thread ever stores `val` to `var`".
struct TmaiGoal {
  bool check_assert = true;
  VarId var;
  Value val = 0;
};

struct TmaiThread {
  const Cfa* cfa = nullptr;
  // True if any number of copies of this program may run concurrently
  // (the env template, or a dis program listed more than once) — the
  // thread then interferes with itself.
  bool replicated = false;
};

struct TmaiSystem {
  std::vector<TmaiThread> threads;
  std::size_t num_vars = 0;
  Value dom = 2;

  // Adapts the simplified-semantics system: env (replicated) + dis
  // threads, with duplicate dis programs collapsed into one replicated
  // entry. `thread_of_dis[i]` maps dis index i to its TmaiThread.
  static TmaiSystem FromSimpl(const SimplSystem& s);
};

// One abstract disjunct: per-register and per-variable value sets,
// plus the relational must-sets (empty — no information — under the
// small-set domain, so the small-set analysis is bit-identical to the
// pre-relational one).
struct AbsState {
  std::vector<ValueSet> regs;
  std::vector<ValueSet> view;
  // Must-observations: (y, w) pairs definitely in the causal past.
  PairSet obs;
  // Linear pairs consumed by this instance's own CAS reads.
  PairSet cons;

  bool SubsumedBy(const AbsState& o) const;
  void MergeWith(const AbsState& o);
  bool operator==(const AbsState& o) const {
    return regs == o.regs && view == o.view && obs == o.obs &&
           cons == o.cons;
  }
};

// Fixpoint facts about one thread, for the safety verdict and the
// TMAI-backed lint diagnostics (RA030–RA033). Only meaningful when the
// enclosing result converged.
struct ThreadReport {
  std::vector<char> node_reachable;  // per NodeId
  std::vector<char> edge_enabled;    // per EdgeId: some disjunct survives
  // kAssume edges whose source is reachable but whose guard no reaching
  // disjunct can satisfy (RA030).
  std::vector<char> guard_unsat;
  // Per edge: abstract set of values a kStore/kCas edge may publish
  // (empty for other kinds). Singleton => RA031.
  std::vector<ValueSet> edge_store_vals;
  // Per edge: values a kLoad/kCas edge actually reads, i.e. the
  // case-split values that survive presence filtering and (relational
  // domain) the pruning rules. Comparing the two domains' sets per
  // edge is what backs the RA034 lint.
  std::vector<ValueSet> edge_read_vals;
  // No other thread's stores are visible to this one (RA033).
  bool interference_empty = false;
  // Some kAssertFail edge is abstractly reachable.
  bool assert_reachable = false;
};

struct Certificate;  // tmai/certcheck.h

struct TmaiResult {
  bool converged = false;
  // Goal proven unreachable in the abstraction. Requires convergence;
  // false means kUnknown, never kUnsafe.
  bool safe = false;
  bool assert_reachable = false;
  int iterations = 0;
  std::size_t max_disjuncts_seen = 0;
  // The domain that produced this result (kAuto resolves to the
  // stronger domain that actually ran last).
  Domain domain_used = Domain::kSmallSet;
  // Relational domain only: strengthening rounds run (0 when only the
  // tracking round ran) and reads pruned by R1/R2 in the final round.
  int strengthen_rounds = 0;
  std::size_t pruned_reads = 0;
  // Parallel to TmaiSystem::threads; populated only when converged.
  std::vector<ThreadReport> threads;
  // Machine-checkable invariant certificate (see tmai/certcheck.h); set
  // on kSafe, except when only relational strengthening rounds that were
  // not self-stable proved it (relational.cpp).
  std::shared_ptr<const Certificate> certificate;
};

TmaiResult RunTmai(const TmaiSystem& sys, const TmaiGoal& goal,
                   const TmaiOptions& opts);

}  // namespace rapar::tmai

#endif  // RAPAR_TMAI_TMAI_H_
