// makeP (§4.1): emits one Cache Datalog query instance per dis-run guess.
//
// Predicates (following the paper), for k variables, m env registers and
// W view words (below):
//   emp(x, d, w_1..w_W)   — an available env message on x with value d and
//                           a packed view; arity 2 + W.
//   etp(lc, r_1..r_m, w_1..w_W)
//                         — a reachable env-thread configuration; arity
//                           1 + m + W.
//   dmp(x, d, w_1..w_W)   — an available dis message (init messages are
//                           facts; guessed stores are derived from the
//                           thread predicates, which validates the guess);
//                           arity 2 + W.
//   dtp_i_j(w_1..w_W)     — dis thread i has executed the first j steps of
//                           its guessed path; registers are concrete along
//                           the guess, so only the view is threaded; arity W.
//   violation()/goal()/unsafe() — query atoms.
//
// Packed views. A view (t_1..t_k) of abstract timestamps (2t for dis t,
// 2t+1 for t⁺) takes values 0..2T+1, T = max_x StoresOn(x), so each
// timestamp gets b = bit_width(2T + 1) bits and one 32-bit word holds
// ⌊32/b⌋ of them: W = ⌈k / ⌊32/b⌋⌉ words, one for every TQBF reduction
// (b = 1). A view word is a raw Sym, not an interned constant; the
// program's dl::ViewLayout says how to print it. Rules work on whole words
// with field natives: a view join is one field-wise kMax per word, a
// timestamp check one field kLeq, a head timestamp fixed to a constant a
// kMax with the constant word (every such rule checks the joined
// timestamp is at most the constant), and a pinned dis-message timestamp
// two field kLeq checks. Each tuple packs the view of the tuple the
// one-argument-per-timestamp encoding derives, and nothing else.
//
// Abstract timestamps are interned first, so Sym value == encoded
// timestamp. Rules have at most two IDB body atoms (a thread predicate and
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

  // dlopt's value-level productivity (dlopt/optimize.h, pass 1) run on
  // the guess skeleton instead of the emitted program: false only when no
  // rule for unsafe() in Encode(guess) is productive, so that
  // OptimizeForQuery leaves no rule at all (DESIGN.md §6 proves it). A
  // dis thread blocks at its first read that no unblocked head can feed:
  // an env read of a variable no live env edge stores, or a dis read of
  // (x, v), v != init, that no unblocked dis store or CAS writes. The
  // goal may be derivable when the env has a live `assert false`, the
  // goal value is the init value, the env stores the goal variable, or an
  // unblocked dis step asserts or writes the goal message.
  //
  // When the result is true, *key receives the guess's class key: the
  // store profile, then per dis thread t its demand cut D_t and for each
  // step j < D_t its edge, read value, read source, store position and
  // stored value. D_t is one past the last step before the one where t
  // blocks that asserts or writes a message dlopt's demand pass (pass 3)
  // keeps, 0 if none: a greatest fixpoint that mirrors pass 3 on the
  // guess skeleton and demands at least what pass 3 does, so dlopt
  // deletes every rule of the steps from D_t on. Guesses with equal keys
  // optimize to the same program up to the numbering of the dtp
  // predicates, so Engine::Solve gives them the same verdict and the
  // same EvalStats (DESIGN.md §6). The result is a function of the key.
  bool MayDerive(const DisGuess& guess, std::string* key) const;

  // Distinct store profiles seen so far (one cached prefix each).
  std::size_t profiles() const { return prefixes_.size(); }

 private:
  const SimplSystem& sys_;
  const MakePOptions options_;
  // Per env edge: never traversable, so it emits no rules.
  std::vector<bool> edge_dead_;
  // Per variable: some live env edge stores it. And: some live env edge
  // is an `assert false`.
  std::vector<bool> env_stores_;
  bool env_asserts_ = false;
  std::unordered_map<std::string, dl::Program> prefixes_;
  std::string key_;  // profile-key scratch
  // MayDerive scratch: per dis thread, the steps it gets past and its
  // demand cut; per (variable, value), written by a dis step some thread
  // gets past; the emp tags demanded from outside the env, and the
  // demanded dmp tags and dmp values.
  mutable std::vector<std::size_t> passed_;
  mutable std::vector<std::size_t> cut_;
  mutable std::vector<bool> written_;
  mutable std::vector<bool> emp_outside_;
  mutable std::vector<bool> dmp_tags_;
  mutable std::vector<bool> dmp_vals_;
  // Per set of emp tags demanded from outside the env (one flag per
  // variable): the variables whose env loads stay demanded. The env side
  // of the demand fixpoint depends on a guess through that set alone.
  mutable std::unordered_map<std::vector<bool>, std::vector<bool>> env_loads_;

  // Shrinks cut_ from passed_ to the demand cuts once the blocked-step
  // fixpoint has filled passed_ and written_.
  void DemandCut(const DisGuess& guess) const;
  // The env side of DemandCut for the emp tags `emp_outside`, cached.
  const std::vector<bool>& EnvLoads(const std::vector<bool>& emp_outside) const;
  // Appends the class key to *key once DemandCut has filled cut_.
  void AppendClassKey(const DisGuess& guess, std::string* key) const;
};

}  // namespace rapar

#endif  // RAPAR_ENCODING_MAKEP_H_
