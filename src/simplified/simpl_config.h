// Abstract configurations of the simplified semantics (§3.4).
//
// An abstract configuration consists of
//   * per variable, the sequence of dis messages in modification order
//     (dense even timestamps, with CAS glue flags),
//   * a monotone set of env messages (odd "gap" timestamps),
//   * a monotone set of reachable env-thread local configurations
//     (justified by the Infinite Supply Lemma 3.3 — see
//     README-semantics.md),
//   * the local configurations of the fixed dis threads.
#ifndef RAPAR_SIMPLIFIED_SIMPL_CONFIG_H_
#define RAPAR_SIMPLIFIED_SIMPL_CONFIG_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "lang/program.h"
#include "ra/view.h"
#include "simplified/abs_time.h"

namespace rapar {

// An env message (x, d, vw) with vw(x) of the form t⁺.
struct EnvMsg {
  VarId var;
  Value val = 0;
  View view;

  AbsTs ts() const { return view[var]; }

  bool operator==(const EnvMsg& o) const {
    return var == o.var && val == o.val && view == o.view;
  }
  bool operator<(const EnvMsg& o) const {
    if (var != o.var) return var < o.var;
    if (val != o.val) return val < o.val;
    return view < o.view;
  }
};

// A dis message; its own timestamp is 2 * (its position).
struct DisMsg {
  Value val = 0;
  View view;
  // CAS adjacency: the gap directly below this message is frozen.
  bool glued = false;

  bool operator==(const DisMsg& o) const {
    return val == o.val && glued == o.glued && view == o.view;
  }
};

// A thread-local configuration (shared shape for env and dis threads).
struct LocalCfg {
  NodeId node;
  std::vector<Value> rv;
  View view;

  bool operator==(const LocalCfg& o) const {
    return node == o.node && rv == o.rv && view == o.view;
  }
  bool operator<(const LocalCfg& o) const {
    if (node != o.node) return node < o.node;
    if (rv != o.rv) return rv < o.rv;
    return view < o.view;
  }
};

class SimplConfig {
 public:
  SimplConfig() = default;
  // Initial abstract configuration: init dis message (timestamp 0, value
  // d_init) per variable; one initial env configuration; dis threads at
  // entry.
  SimplConfig(std::size_t num_vars, std::size_t env_regs,
              const std::vector<std::size_t>& dis_regs);

  std::size_t num_vars() const { return dis_mem_.size(); }

  // --- dis messages -------------------------------------------------------
  const std::vector<DisMsg>& DisMsgsOf(VarId x) const {
    return dis_mem_[x.index()];
  }
  // Number of gaps on x == number of dis messages (gap i sits directly
  // above dis message i; the top gap is NumGaps-1).
  int NumGaps(VarId x) const {
    return static_cast<int>(dis_mem_[x.index()].size());
  }
  // A gap is frozen iff the dis message directly above it is glued.
  bool GapFrozen(VarId x, int gap) const;
  // Smallest unfrozen gap >= `from` (always exists: top gap is unfrozen).
  int NextFreeGap(VarId x, int from) const;

  // True iff a message (x, v) other than x's init message is in memory:
  // an env message, or a dis message above the init one. The Message
  // Generation goal (§4.1) of the explorer and of witness minimisation.
  bool HasGeneratedMessage(VarId x, Value v) const;

  // Inserts a dis message into gap `gap` on x. `base_view` is the storing
  // thread's (pre-insertion) view, already joined with the CAS load view
  // if applicable. `cas_on_dis` selects the CAS-loading-a-dis-message
  // variant: existing env items of the gap shift above the new message and
  // the new message is glued (gap frozen). Returns the new message's
  // abstract timestamp.
  AbsTs InsertDisMsg(VarId x, int gap, Value val, const View& base_view,
                     bool cas_on_dis);

  // --- env messages and configurations ------------------------------------
  const std::vector<EnvMsg>& env_msgs() const { return env_msgs_; }
  const std::vector<LocalCfg>& env_cfgs() const { return env_cfgs_; }
  // Set insertion; returns true if the element was new.
  bool AddEnvMsg(EnvMsg msg);
  bool AddEnvCfg(LocalCfg cfg);

  // --- dis threads ----------------------------------------------------------
  const std::vector<LocalCfg>& dis_threads() const { return dis_threads_; }
  LocalCfg& dis_thread(std::size_t i) { return dis_threads_[i]; }
  const LocalCfg& dis_thread(std::size_t i) const { return dis_threads_[i]; }

  // --- comparison -----------------------------------------------------------
  bool operator==(const SimplConfig& o) const {
    return dis_mem_ == o.dis_mem_ && env_msgs_ == o.env_msgs_ &&
           env_cfgs_ == o.env_cfgs_ && dis_threads_ == o.dis_threads_;
  }

  // Hash of the dis part (memory + threads): the explorer's bucket key
  // for its equality dedup. Equal configurations hash equal.
  std::size_t DisPartHash() const;

  std::string ToString(const VarTable& vars) const;

 private:
  // Shifts every x-component >= `threshold` by +2 across all views in the
  // configuration (messages, env configs, dis threads).
  void ShiftFrom(VarId x, AbsTs threshold);

  std::vector<std::vector<DisMsg>> dis_mem_;
  std::vector<EnvMsg> env_msgs_;    // sorted, unique
  std::vector<LocalCfg> env_cfgs_;  // sorted, unique
  std::vector<LocalCfg> dis_threads_;
};

}  // namespace rapar

#endif  // RAPAR_SIMPLIFIED_SIMPL_CONFIG_H_
