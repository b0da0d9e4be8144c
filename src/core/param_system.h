// ParamSystem: a parameterized system env(nocas) ‖ dis_1(acyc) ‖ … ‖
// dis_n(acyc), the object of the safety verification problem.
//
// Programs may be written against their own variable tables; the builder
// unifies them by name into one system-wide table and remaps all accesses.
// dis programs with loops are brought into the acyc class by bounded
// unrolling (the under-approximate bounded-model-checking regime §4 notes
// this class captures).
#ifndef RAPAR_CORE_PARAM_SYSTEM_H_
#define RAPAR_CORE_PARAM_SYSTEM_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/prepass.h"
#include "common/expected.h"
#include "lang/cfa.h"
#include "lang/classify.h"
#include "lang/program.h"
#include "simplified/transitions.h"

namespace rapar {

class ParamSystem {
 public:
  class Builder {
   public:
    // Sets the program run by the unboundedly many env threads. Must be
    // CAS-free; loops are allowed.
    Builder& Env(Program program) {
      env_ = std::move(program);
      have_env_ = true;
      return *this;
    }
    // Adds one distinguished thread. CAS allowed; loops must either be
    // absent or be removed by the unroll bound.
    Builder& Dis(Program program) {
      dis_.push_back(std::move(program));
      return *this;
    }
    // The largest unroll bound the CLI's --unroll and serve's "unroll"
    // option accept: far beyond any bound a guess scan finishes under.
    static constexpr int kMaxUnroll = 1'000'000;
    // Unroll bound applied to dis programs that contain loops (default 0:
    // reject loops).
    Builder& UnrollDis(int k) {
      unroll_ = k;
      return *this;
    }

    // Validates the class constraints and unifies symbol tables.
    Expected<ParamSystem> Build() const;

   private:
    Program env_;
    bool have_env_ = false;
    std::vector<Program> dis_;
    int unroll_ = 0;
  };

  // The unified variable table (shared by all programs).
  const VarTable& vars() const { return vars_; }
  Value dom() const { return dom_; }

  const Program& env_program() const { return env_program_; }
  const std::vector<Program>& dis_programs() const { return dis_programs_; }

  const Cfa& env_cfa() const { return *env_cfa_; }
  const Cfa& dis_cfa(std::size_t i) const { return *dis_cfas_[i]; }
  std::size_t num_dis() const { return dis_cfas_.size(); }

  // The SimplSystem view consumed by the explorers and encoders.
  const SimplSystem& simpl() const { return simpl_; }

  // The timestamp budget T of §4.1: total store+CAS instructions over the
  // (acyclic) dis programs.
  int TimestampBudget() const;
  // Q0 = |Dom|·|Var| + |dis| (§4.2).
  int Q0() const;

  // Class signature, e.g. "env(nocas) || dis1(acyc) || dis2(nocas,acyc)",
  // followed by the Table 1 class of the whole system. Composed once by
  // Build from the classifications it validates with.
  const std::string& Signature() const { return signature_; }

  // ParamSystem is movable but not copyable (CFAs are owned & referenced
  // by simpl_).
  ParamSystem(ParamSystem&&) = default;
  ParamSystem& operator=(ParamSystem&&) = default;
  ParamSystem(const ParamSystem&) = delete;
  ParamSystem& operator=(const ParamSystem&) = delete;

 private:
  friend class Builder;
  ParamSystem() = default;

  VarTable vars_;
  Value dom_ = 2;
  Program env_program_;
  std::vector<Program> dis_programs_;
  std::unique_ptr<Cfa> env_cfa_;
  std::vector<std::unique_ptr<Cfa>> dis_cfas_;
  SimplSystem simpl_;
  std::string signature_;
};

// The system view a backend runs against: `base` itself, or one rebuilt
// over pruned CFA copies owned here. unique_ptr storage keeps the Cfa
// addresses stable if the struct moves.
struct PreparedSystem {
  SimplSystem simpl;
  PrepassStats stats;
  std::unique_ptr<Cfa> env;
  std::vector<std::unique_ptr<Cfa>> dis;
};

// One program text and the name its parse errors carry: the file path
// for `rapar_cli`, "env" or "dis[i]" for serve's requests.
struct ProgramSource {
  std::string label;
  std::string_view text;
};

// The one way a front end builds a query's system: parses `env` and each
// of `dis` and builds the system, dis loops unrolled up to `unroll`. A
// parse error reads "<label>: <error>"; anything else is Build's error.
Expected<ParamSystem> BuildSystem(const ProgramSource& env,
                                  const std::vector<ProgramSource>& dis,
                                  int unroll);

// Resolves the MG goal message (var, val) against `sys`: `var` must be
// declared and 0 <= val < dom, since a value outside the domain names a
// message no thread can write. `val_name` is how the caller spells the
// value in the error ("--val" for the CLI, "\"val\"" for serve).
Expected<std::pair<VarId, Value>> ResolveGoal(const ParamSystem& sys,
                                              std::string_view var,
                                              long long val,
                                              std::string_view val_name);

// With `run_prepass`, runs the pre-pass (analysis/prepass.h) over `base`
// with the goal variable `protect` (VarId::Invalid() when there is none)
// kept from store slicing, and keeps the original CFAs when it pruned
// nothing. SafetyVerifier, which checks each TMAI certificate where it is
// made, and `rapar_cli certcheck` both prepare through here, so a
// certificate is checked against the CFAs it was proved on.
PreparedSystem PrepareSystem(const SimplSystem& base, bool run_prepass,
                             VarId protect);

}  // namespace rapar

#endif  // RAPAR_CORE_PARAM_SYSTEM_H_
