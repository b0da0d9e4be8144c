// The cooperative wall-clock deadline behind VerifierOptions::time_budget_ms,
// shared by the backends that honour it (the two explorers and the Datalog
// guess scan). A budget of 0 ms or less means no deadline.
#ifndef RAPAR_COMMON_DEADLINE_H_
#define RAPAR_COMMON_DEADLINE_H_

#include <chrono>
#include <cstddef>

namespace rapar {

class Deadline {
 public:
  explicit Deadline(long long ms) {
    if (ms <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::milliseconds budget(ms);
    // A budget longer than the clock can count from now never expires;
    // adding it would overflow.
    if (budget < std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::time_point::max() - now)) {
      limited_ = true;
      at_ = now + budget;
    }
  }

  // Reads the clock on every call, for loops whose steps dwarf a clock
  // read (one Datalog solve per guess).
  bool Expired() const {
    return limited_ && std::chrono::steady_clock::now() > at_;
  }

  // Reads the clock on every 64th call only, for loops of
  // microsecond-sized steps (explorer expansions). Latched: once it has
  // seen the deadline pass it stays true, and hit() says so, so a caller
  // can tell a truncated search from one the state or depth caps cut.
  bool Poll() {
    if (limited_ && !hit_ && (++ticks_ & 63) == 0 && Expired()) hit_ = true;
    return hit_;
  }
  bool hit() const { return hit_; }

 private:
  bool limited_ = false;
  bool hit_ = false;
  std::size_t ticks_ = 0;
  std::chrono::steady_clock::time_point at_;
};

}  // namespace rapar

#endif  // RAPAR_COMMON_DEADLINE_H_
