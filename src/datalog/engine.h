// Bottom-up (semi-naive) Datalog evaluation with argument-hash indexes.
// Each delta tuple joins the rest of its rule's body in body order.
#ifndef RAPAR_DATALOG_ENGINE_H_
#define RAPAR_DATALOG_ENGINE_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "datalog/ast.h"

namespace rapar::dl {

// The tuple hash of Database, fed one cell at a time so a caller can hash
// a tuple while it assembles it (the engine hashes an index probe's key
// while gathering its cells). HashCombine leaves the low bits, which pick
// a slot, nearly independent of a cell's high bits, where packed view
// words (encoding/makep.h) differ; the SplitMix64 finalizer mixes them in.
class TupleHash {
 public:
  void Add(Sym s) { HashCombine(h_, s); }
  std::size_t Value() const { return SplitMix64(h_); }

 private:
  std::size_t h_ = 0x12345678;
};

// Predicate extensions computed by evaluation.
//
// Storage is flat per predicate: one row-major pool (stride = arity) with
// an open-addressing tuple-id table for duplicate detection. The pool
// keeps insertion order, which the semi-naive worklist and the index
// candidate ordering rely on.
class Database {
 public:
  explicit Database(std::size_t num_preds) : exts_(num_preds) {}

  // Returns true if the tuple was new (and appended at index Size()-1).
  bool Insert(PredId pred, const std::vector<Sym>& tuple);
  bool Contains(PredId pred, const std::vector<Sym>& tuple) const;

  std::size_t Size(PredId pred) const { return exts_[pred].n; }
  // Borrowed pointer to tuple `ti`'s cells. Valid only until the next
  // Insert on the same predicate (the pool may reallocate); joins read it
  // immediately and never hold it across an emission.
  const Sym* At(PredId pred, std::size_t ti) const {
    return exts_[pred].pool.data() + ti * exts_[pred].arity;
  }
  // Copies tuple `ti` into *out (cleared first).
  void Row(PredId pred, std::size_t ti, std::vector<Sym>* out) const;
  // Materializes the whole extension in insertion order. For tests and
  // Eval consumers; evaluation uses Size/At/Row.
  std::vector<std::vector<Sym>> Tuples(PredId pred) const;

  std::size_t num_preds() const { return exts_.size(); }

  // Empties every extension and sets the predicate count, keeping
  // allocated pool/slot capacity so a reusing caller (Engine) avoids
  // re-allocation churn across solves.
  void Reset(std::size_t num_preds);

 private:
  struct Ext {
    static constexpr std::uint32_t kNoArity = 0xffffffffu;
    std::uint32_t arity = kNoArity;  // set on first insert
    std::size_t n = 0;               // stored tuples
    std::vector<Sym> pool;           // row-major: n * arity cells
    // Linear-probing duplicate table over tuple ids: power-of-two size,
    // at most half full.
    std::vector<std::uint32_t> slots;
  };
  // Tuple `ti`'s slot in a table of size mask + 1: ti + 1 in the bits of
  // the mask (at most half full, it fits) and the top bits of the tuple's
  // hash above them, so a probe past another tuple's slot rarely reads
  // the pool.
  static std::uint32_t SlotOf(std::size_t hash, std::size_t mask,
                              std::size_t ti);
  static constexpr std::uint32_t kEmptySlot = 0;

  static std::size_t Hash(const std::vector<Sym>& tuple);
  static std::size_t HashCells(const Ext& e, std::size_t ti);
  static bool CellsEqual(const Ext& e, std::size_t ti,
                         const std::vector<Sym>& tuple);
  // The slot holding `tuple` (hashed to `hash`), or the empty slot where
  // it would go.
  static std::size_t FindSlot(const Ext& e, const std::vector<Sym>& tuple,
                              std::size_t hash);
  // Re-places tuples 0..n-1 into a table of at least the current size
  // that is at most half full after one more insert.
  static void RebuildSlots(Ext& e);

  std::vector<Ext> exts_;
};

struct EvalStats {
  std::size_t tuples = 0;        // derived tuples (including facts)
  std::size_t rule_firings = 0;  // successful rule instantiations
  std::size_t join_attempts = 0; // candidate tuples unified against a body atom
  // Join-index counters (all zero when indexing is disabled).
  std::size_t index_probes = 0;  // hash-index lookups answered from a bucket
  std::size_t index_hits = 0;    // candidate tuples indexed lookups yielded
  std::size_t index_builds = 0;  // distinct (predicate, signature) indexes
  bool goal_found = false;
};

// Thrown when evaluation derives more than EvalOptions::max_tuples tuples.
// Derives from std::runtime_error so legacy catch sites keep working, but
// lets callers (Engine::Solve, the Datalog verifier) tell a budget abort
// apart from a genuine failure.
class BudgetExceeded : public std::runtime_error {
 public:
  explicit BudgetExceeded(std::size_t budget)
      : std::runtime_error("datalog evaluation exceeded tuple budget (" +
                           std::to_string(budget) + ")"),
        budget_(budget) {}
  std::size_t budget() const { return budget_; }

 private:
  std::size_t budget_ = 0;
};

// Per-predicate growth class (0 = EDB, 1 = derived in a non-recursive
// SCC, 2 = derived and recursive) from dlopt::MakeJoinHints. The engine
// reads none of it: it joins body atoms in body order (DESIGN.md §7). It
// stays only because rabench/traced_main.cpp still builds it and passes
// it in EvalOptions::hints.
struct JoinHints {
  std::vector<std::uint8_t> growth;
};

// Evaluation-core switches, separate from the per-call limits in
// EvalOptions. The verifier always solves with the defaults; turning the
// index off gives the naive full-scan evaluation that the engine tests
// (datalog_engine_test, datalog_differential_test,
// datalog_index_differential_test) use as their reference.
struct EngineOptions {
  // Build lazy per-(predicate, bound-position signature) join indexes and
  // probe them instead of scanning the full extension.
  bool use_index = true;
};

struct EvalOptions {
  // Stop as soon as the goal atom is derived (early exit).
  bool early_exit = true;
  // Abort evaluation (BudgetExceeded) after this many derived tuples
  // (0 = unlimited).
  std::size_t max_tuples = 0;
  // Evaluation-core tuning (indexes).
  EngineOptions engine;
  // Read by nothing; rabench/traced_main.cpp still sets it (JoinHints).
  const JoinHints* hints = nullptr;
};

// Evaluates `prog` to fixpoint (or until `goal` is derived). Returns
// whether Prog ⊢ goal. `*stats` is reset at entry: the counters describe
// this evaluation only, never an accumulation across calls (callers that
// want totals sum explicitly, or use Engine below).
//
// Validates its inputs instead of asserting (ValidateProgram and
// ValidateGoal, ast.h): a goal that is non-ground, arity-mismatched, or on
// an unknown predicate, and a program with an unsafe rule (head variable
// or native input not bound by the body / earlier native outputs) or a
// native malformed for its op raise std::invalid_argument — also in
// NDEBUG builds, where the former assert-only checks compiled to nothing.
bool Query(const Program& prog, const Atom& goal, EvalStats* stats = nullptr,
           const EvalOptions& options = {});

// Full fixpoint evaluation; returns the database of all derived tuples.
// Resets `*stats` at entry like Query; validates rule safety like Query.
Database Eval(const Program& prog, EvalStats* stats = nullptr,
              const EvalOptions& options = {});

struct EvaluatorArena;

// A reusable solver handle for callers that evaluate many query instances
// (the Datalog verifier runs one per makeP guess). Per-solve statistics
// are reset on every Solve.
//
// The engine owns an evaluator arena: the database, worklist, binding
// frames and join indexes keep their allocations across Solve calls, so
// repeated solves reuse them. No result carries over: every Solve seeds
// the program's facts afresh and computes its own fixpoint.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  // Decides prog ⊢ goal (ground). Throws BudgetExceeded when
  // EvalOptions::max_tuples is hit; the partial stats of the aborted
  // solve are still recorded. Throws std::invalid_argument on an invalid
  // goal or unsafe rule (see Query).
  bool Solve(const Program& prog, const Atom& goal,
             const EvalOptions& options = {});

  // Statistics of the most recent Solve only.
  const EvalStats& last_stats() const { return last_; }

 private:
  EvalStats last_;
  std::unique_ptr<EvaluatorArena> arena_;
};

}  // namespace rapar::dl

#endif  // RAPAR_DATALOG_ENGINE_H_
