// Internal engine API of the thread-modular abstract interpreter,
// shared by the domain drivers (tmai.cpp: small-set and dispatch;
// relational.cpp: strengthening rounds) and by the certificate checker
// (certcheck.cpp), which re-applies single transfer steps against a
// certificate's embedded tables. Everything here is an implementation
// detail of rapar_tmai — include tmai/tmai.h from the outside.
#ifndef RAPAR_TMAI_FIXPOINT_H_
#define RAPAR_TMAI_FIXPOINT_H_

#include <cstddef>
#include <vector>

#include "tmai/tmai.h"

namespace rapar::tmai::internal {

using VarSets = std::vector<ValueSet>;

// The frozen justification the pruning rules R1/R2 read. Soundness of
// a strengthening round requires that pruning never consults the
// tables the round itself is computing: `just`/`must` point at the
// *previous* round's converged tables (or, in the certificate
// checker, at the certificate's own tables — sound by the
// first-uncovered-event induction documented in certcheck.h).
struct RelationalContext {
  const InterferenceTables* just = nullptr;
  const MustTables* must = nullptr;
  // [var][val]: global producer multiplicity <= 1, counting the init
  // message for val == 0 and counting every store edge of a
  // replicated or cyclic thread twice (unbounded copies/revisits).
  std::vector<std::vector<char>> linear;
  // [thread]: CFA node reachability, flattened num_nodes * num_nodes
  // (reach[a * n + b] <=> some path a ->* b; reflexively true).
  std::vector<std::vector<char>> reach;
};

RelationalContext BuildRelationalContext(const TmaiSystem& sys,
                                         const InterferenceTables& just,
                                         const MustTables& must);

// Per-thread context for one transfer application. Read tables are
// the previous iteration's; contributions go to the write side
// (two-phase, so a round is independent of thread order).
struct TransferCtx {
  const TmaiSystem* sys = nullptr;
  const TmaiOptions* opts = nullptr;
  const InterferenceTables* tables = nullptr;  // read side
  const MustTables* must = nullptr;   // read side; null when not tracking
  InterferenceTables* contrib = nullptr;       // write side (null: classify)
  MustTables* must_contrib = nullptr;          // write side
  const RelationalContext* rel = nullptr;      // pruning; null: disabled
  bool track_pairs = false;
  bool* changed = nullptr;
  std::size_t* pruned_reads = nullptr;  // R1/R2 prune event counter
  std::size_t t = 0;                    // thread index
  const Cfa* cfa = nullptr;
  // [var]: stores by every other thread (incl. own copies if replicated).
  VarSets all_other;
  // [node][var]: values this thread may store at or after node
  // (previous round's edge stores, propagated backwards).
  std::vector<VarSets> future_own;
  // Classification pass only.
  std::vector<ValueSet>* report_edge_store = nullptr;
  std::vector<ValueSet>* report_edge_read = nullptr;
};

VarSets ComputeAllOther(const TmaiSystem& sys,
                        const InterferenceTables& tables, std::size_t t);
std::vector<VarSets> ComputeFutureOwn(const TransferCtx& c);
AbsState EntryState(const TransferCtx& c);
void ApplyEdge(const TransferCtx& c, const CfaEdge& edge, const AbsState& d,
               std::vector<AbsState>& out);

// One complete two-phase interference fixpoint in the given
// configuration. `track_pairs` grows obs/cons and the must tables;
// `rel` (nullable) enables the pruning rules against a frozen
// justification.
struct FixpointRun {
  bool converged = false;
  int iterations = 0;
  std::size_t max_disjuncts_seen = 0;
  // R1/R2 prune events in the final (stable) iteration.
  std::size_t pruned_reads = 0;
  InterferenceTables tables;
  MustTables must;  // meaningful only when tracking
  // [thread][node]: converged disjuncts.
  std::vector<std::vector<std::vector<AbsState>>> states;
};

FixpointRun RunFixpoint(const TmaiSystem& sys, const TmaiOptions& opts,
                        bool track_pairs, const RelationalContext* rel);

// Classification + goal evaluation + certificate emission for a
// converged run; fills reports/safe/assert_reachable on `result` (which
// must already carry the iteration counters), and the certificate when
// the run is safe and `emit_certificate`.
void FinishConverged(const TmaiSystem& sys, const TmaiGoal& goal,
                     const TmaiOptions& opts, const FixpointRun& run,
                     const RelationalContext* rel, Domain domain,
                     bool emit_certificate, TmaiResult* result);

// The relational driver: tracking round, then up to three pruning rounds
// against the previous round's frozen tables. Implemented in
// relational.cpp.
TmaiResult RunTmaiRelational(const TmaiSystem& sys, const TmaiGoal& goal,
                             const TmaiOptions& opts);

}  // namespace rapar::tmai::internal

#endif  // RAPAR_TMAI_FIXPOINT_H_
