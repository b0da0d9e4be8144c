// makeP (§4.1): emits one Cache Datalog query instance per dis-run guess.
//
// Predicates (following the paper):
//   emp(x, d, t_1..t_k)   — an available env message on x with value d and
//                           view (t_1..t_k); views are inlined as one
//                           abstract-timestamp argument per variable.
//   etp(lc, r_1..r_m, t_1..t_k)
//                         — a reachable env-thread configuration.
//   dmp(x, d, t_1..t_k)   — an available dis message (init messages are
//                           facts; guessed stores are derived from the
//                           thread predicates, which validates the guess).
//   dtp_i_j(t_1..t_k)     — dis thread i has executed the first j steps of
//                           its guessed path; registers are concrete along
//                           the guess, so only the view is threaded.
//   violation()/goal()/unsafe() — query atoms.
//
// Abstract timestamps are interned first, so Sym value == encoded
// timestamp (2t for dis t, 2t+1 for t⁺); natives compare/join them
// directly. Rules have at most two IDB body atoms (a thread predicate and
// a message predicate), i.e. the program is Cache Datalog as required by
// Lemma 4.2's pipeline; dmp/emp-free rules are linear outright.
#ifndef RAPAR_ENCODING_MAKEP_H_
#define RAPAR_ENCODING_MAKEP_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "encoding/dis_guess.h"

namespace rapar {

struct MakePResult {
  std::unique_ptr<dl::Program> prog;
  // The query atom g: unsafe().
  dl::Atom goal;
};

struct MakePOptions {
  // MG goal message (var, val); when unset only assert-false violations
  // constitute unsafety.
  std::optional<std::pair<VarId, Value>> goal_message;
};

// Builds the query instance for one guess. The caller owns the program.
// A one-shot MakePEncoder: callers that encode many guesses of one system
// should keep an encoder instead.
MakePResult MakeP(const SimplSystem& sys, const DisGuess& guess,
                  const MakePOptions& options);

// makeP for many guesses of one system. The env part of a query instance
// (constants, the emp/dmp/etp/unsafe predicates, init facts and env
// rules) depends on the guess only through its *store profile*: the
// number of dis stores on each variable and which of them are CAS-glued
// (DisGuess::StoresOn / GapFrozen fix the abstract timestamps and the
// promotion gaps the env rules range over). The encoder emits that prefix
// once per distinct profile and, per guess, copies it and appends the
// guess's dtp chains and goal rules in MakeP's order, so every program is
// rule-for-rule the one MakeP emits. The env reachability analysis also
// runs once, at construction. Not thread-safe: one encoder per thread;
// `sys` must outlive it.
class MakePEncoder {
 public:
  MakePEncoder(const SimplSystem& sys, const MakePOptions& options);

  MakePResult Encode(const DisGuess& guess);

  // Distinct store profiles seen so far (one cached prefix each).
  std::size_t profiles() const { return prefixes_.size(); }

 private:
  const SimplSystem& sys_;
  const MakePOptions options_;
  // Per env edge: never traversable, so it emits no rules.
  std::vector<bool> edge_dead_;
  std::unordered_map<std::string, dl::Program> prefixes_;
  std::string key_;  // profile-key scratch
};

}  // namespace rapar

#endif  // RAPAR_ENCODING_MAKEP_H_
