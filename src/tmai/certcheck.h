// Invariant certificates for the thread-modular abstract interpreter,
// and an independent checker that re-validates one without re-running
// the fixpoint.
//
// A certificate is everything the TMAI fixpoint converged to: per
// thread and per CFA node the disjunctive invariants (register/view
// value sets plus, under the relational domain, the obs/cons
// must-sets of relational.h), the may-side interference tables and the
// must-side OBS/CONS tables, and the goal the run proved. It is
// emitted on every kSafe verdict and rides the versioned JSON result
// envelope under the "certificate" key.
//
// What the checker verifies (CheckCertificate):
//   1. Shape: the certificate matches the system it claims to certify
//      (thread count and roles, node/edge counts, num_vars, dom).
//   2. Entry coverage: each thread's abstract entry state is subsumed
//      by an invariant disjunct at the entry node.
//   3. Inductiveness: applying the one-edge abstract transfer to every
//      invariant disjunct yields only states subsumed at the target
//      node, and the transfer's table contributions are already
//      contained in the certificate's tables (may side) resp. already
//      imply the certificate's claims (must side: every store event's
//      obs/cons covers the OBS/CONS entry it feeds).
//   4. Goal exclusion: no kAssertFail edge has a reachable source
//      (assert goal), or the goal value is never stored (MG goal).
//
// Why a checker that validates a *relational* certificate against the
// certificate's own tables is sound (self-justification): suppose some
// concrete run escaped the certified invariants, and take its first
// event e not covered by them. Every event before e is covered, so
// every message existing when e fires is covered by a store event the
// checker validated — hence the certificate's may tables
// over-approximate and its must tables under-approximate the true
// prefix, so the pruning rules R1/R2 (relational.h), justified by
// those very tables, exclude nothing the prefix can do. The transfer
// applied to e's covered pre-state therefore covers e's post-state
// (condition 3), contradicting the choice of e. With every reachable
// state covered, condition 4 transfers abstract goal exclusion to the
// concrete system.
#ifndef RAPAR_TMAI_CERTCHECK_H_
#define RAPAR_TMAI_CERTCHECK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/json.h"
#include "tmai/tmai.h"

namespace rapar::tmai {

// Versions the "certificate" JSON object independently of the result
// envelope's kResultSchemaVersion (adding the key did not bump the
// envelope's version).
inline constexpr int kCertificateSchemaVersion = 1;

struct Certificate {
  int schema_version = kCertificateSchemaVersion;
  // The domain that produced the proof; tells the checker whether the
  // relational machinery (must tables, pruning) participates.
  Domain domain = Domain::kSmallSet;
  // The proved goal (TmaiGoal): assert-edge unreachability or the MG
  // query "no thread ever stores goal_val to goal_var".
  bool check_assert = true;
  std::uint32_t goal_var = 0;
  Value goal_val = 0;
  // System shape, validated against the system the checker rebuilds.
  std::size_t num_vars = 0;
  Value dom = 2;
  // The abstract transfer is parameterized by the explicit value-set
  // size cutoff (EvalExprSet/RefineAssume saturate to top above it);
  // the checker must replay with the producing run's limit.
  int value_set_limit = 16;

  struct Thread {
    bool replicated = false;
    std::size_t num_nodes = 0;
    std::size_t num_edges = 0;
    // [node]: the converged invariant disjuncts.
    std::vector<std::vector<AbsState>> invariants;
  };
  std::vector<Thread> threads;

  InterferenceTables tables;
  // Meaningful (and serialized) only for the relational domain.
  MustTables must;
};

// Snapshot of a converged fixpoint run as a certificate. `states` is
// [thread][node][disjunct], parallel to sys.threads.
std::shared_ptr<const Certificate> BuildCertificate(
    const TmaiSystem& sys, const TmaiGoal& goal, const TmaiOptions& opts,
    const std::vector<std::vector<std::vector<AbsState>>>& states,
    const InterferenceTables& tables, const MustTables& must, Domain domain);

struct CertCheckResult {
  bool valid = false;
  // First violated condition, empty when valid.
  std::string error;
  std::size_t nodes_checked = 0;
  std::size_t edges_checked = 0;
};

// Independently re-validates `cert` against `sys` (conditions 1–4
// above) without running the fixpoint.
CertCheckResult CheckCertificate(const TmaiSystem& sys,
                                 const Certificate& cert);

// The "certificate" JSON object (written inside an already-open value
// position of `w`), and its inverse.
void WriteCertificateJson(const Certificate& cert, JsonWriter* w);
Expected<Certificate> ParseCertificateJson(const JsonValue& v);

}  // namespace rapar::tmai

#endif  // RAPAR_TMAI_CERTCHECK_H_
