// Guessed dis-thread run skeletons for the makeP encoding (§4.1).
//
// makeP is a *non-deterministic* polynomial-time procedure: each execution
// guesses the dis part of a run and emits one Datalog query instance. A
// guess pins, for every dis thread, its control path and all data it
// computes (register valuations / read values), and, per shared variable,
// the final modification order of dis stores including CAS glue — i.e.
// everything except the message views, which the Datalog derivation
// computes. This keeps the emitted program sound: with the dis part fixed,
// monotone evaluation cannot recombine incompatible dis branches.
//
// The enumerator below realises the nondeterminism by exhaustive
// enumeration with pruning; it is exponential in the dis programs (as the
// NP guess must be) and intended for the small instances the Datalog
// backend is exercised on. DisGuessCursor is the enumeration: a
// resumable state machine that steps one guess at a time on the caller's
// thread and hands it out by reference, so a consumer (the verification
// drivers) holds one skeleton, not up to max_guesses = 200'000 of them,
// and stops the search the moment a verdict is decided by no longer
// asking. EnumerateDisGuesses copies the cursor's sequence into a vector
// (tests, small systems).
//
// Resume: the enumeration order is deterministic, so every guess has a
// stable *global index*. GuessEnumOptions::start_index skips a prefix of
// that order (for resuming an aborted scan); it only suppresses
// *emission*, so the global index keeps counting and the max_guesses cap
// cuts the same prefix as in an uninterrupted run. A CursorCheckpoint
// serializes a scan position (the first unscanned global index, bound to
// the query it was taken for) as versioned JSON, and
// SaveCheckpointFile/LoadCheckpointFile keep it in a file.
#ifndef RAPAR_ENCODING_DIS_GUESS_H_
#define RAPAR_ENCODING_DIS_GUESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "simplified/transitions.h"

namespace rapar {

// One annotated step of a guessed dis-thread path.
struct GuessStep {
  std::uint32_t edge = 0;  // CFA edge id of this thread
  // Loads and CAS loads: the value read, and the source.
  Value read_value = -1;   // -1: no read
  bool read_from_env = false;
  // If reading a dis message: its final position in the variable's
  // guessed sequence (0 = init message).
  int read_dis_pos = -1;
  // Stores and CAS stores: final position (>= 1) in the variable's
  // guessed modification order.
  int store_pos = -1;
  // The register valuation *after* this step (concrete along the path).
  std::vector<Value> rv_after;
};

struct ThreadGuess {
  std::vector<GuessStep> steps;
  // True if the path traverses an `assert false` edge.
  bool hits_assert = false;
};

// One guessed dis store cell in a variable's final modification order.
struct MemCell {
  Value val = 0;
  int thread = -1;     // dis thread index that performs the store
  int step_idx = -1;   // index into that thread's step list
  bool glued = false;  // CAS store: the gap below is frozen
};

struct DisGuess {
  std::vector<ThreadGuess> threads;
  // mem[x][p-1] describes the dis store at position p (init at position 0
  // is implicit: value d_init, never glued).
  std::vector<std::vector<MemCell>> mem;

  // Number of dis stores on x.
  int StoresOn(std::size_t x) const { return static_cast<int>(mem[x].size()); }
  // A gap h on x is frozen iff the store at position h+1 is glued.
  bool GapFrozen(std::size_t x, int gap) const {
    return gap + 1 <= StoresOn(x) &&
           mem[x][static_cast<std::size_t>(gap)].glued;
  }

  std::string ToString(const SimplSystem& sys) const;
};

struct GuessEnumOptions {
  // Hard cap on the *global* enumeration index: enumeration stops once
  // max_guesses guesses exist in the global order, however many of them
  // a resumed cursor emitted. With start_index = 0 this is exactly the
  // number of guesses produced.
  std::size_t max_guesses = 200'000;
  // Resume: suppress guesses with global index < start_index (they were
  // scanned by a previous run).
  std::size_t start_index = 0;
};

// A serializable scan position. `query` is a digest of the query the
// scan answers (the caller computes it; a checkpoint is only valid for
// the query it was taken for). `next_index` is the first global index not
// yet scanned (every index below it is done), so it is also the number
// of guesses scanned so far. `exhausted` means the enumeration finished
// and there is nothing to resume.
struct CursorCheckpoint {
  static constexpr int kSchemaVersion = 2;
  std::string query;
  std::size_t next_index = 0;
  bool exhausted = false;

  // Versioned JSON via common/json. FromJson validates shape, schema
  // version and field types: a corrupted or version-mismatched document
  // is an error, never a zeroed checkpoint.
  std::string ToJson(bool pretty = false) const;
  static Expected<CursorCheckpoint> FromJson(std::string_view text);
};

// Reads and validates a checkpoint file (CursorCheckpoint::FromJson).
Expected<CursorCheckpoint> LoadCheckpointFile(const std::string& path);

// Writes atomically: to `path`.tmp, fsync, then rename over `path` — a
// kill mid-write leaves the previous checkpoint intact, never a torn
// one. Returns an error message on IO failure.
Expected<bool> SaveCheckpointFile(const std::string& path,
                                  const CursorCheckpoint& cp);

// Enumerates all valid dis-run guesses of `sys` (up to the cap). Register
// effects, assumes and CAS value-matching are checked during enumeration;
// view feasibility is left to the Datalog derivation. Sets *complete to
// false if the cap cut the enumeration. Copies the DisGuessCursor
// sequence.
std::vector<DisGuess> EnumerateDisGuesses(const SimplSystem& sys,
                                          const GuessEnumOptions& options,
                                          bool* complete);

// One guess together with its global enumeration index (stable across
// resumed runs — see GuessEnumOptions).
struct IndexedGuess {
  std::size_t index = 0;
  DisGuess guess;
};

// The guess enumeration as a resumable state machine on the caller's
// thread. The guesses of `sys` are the states of three nested odometers,
// most significant digit first:
//
//   * paths:  one control path per dis thread (phase A, enumerated once),
//             thread 0 most significant;
//   * merges: per variable, one interleaving of the chosen paths' stores
//             on it (its final dis modification order), variable 0 first;
//   * reads:  per load or CAS step of the chosen paths, in thread-major
//             step order, one read source: a load reads init (only when
//             it reads 0), then each dis position holding its value in
//             ascending order, then env; a CAS reads the dis message glued
//             below its own store (when that holds its value), then env.
//
// Next() steps the odometers and rewrites the one guess the cursor holds
// in place: a read digit rewrites one step's source (and a CAS's glue
// bit), a merge digit rewrites store positions and the modification order
// and resets the read digits, a path digit re-copies a thread's path and
// rebuilds the interleavings. Not thread-safe: one thread drives a cursor.
//
// `sys` must outlive the cursor.
class DisGuessCursor {
 public:
  DisGuessCursor(const SimplSystem& sys, const GuessEnumOptions& options);

  DisGuessCursor(const DisGuessCursor&) = delete;
  DisGuessCursor& operator=(const DisGuessCursor&) = delete;

  // The next guess this cursor emits, with its global index, or nullptr
  // once the enumeration is exhausted. The guess is the cursor's own: it
  // stays valid, unchanged, until the next call to Next or NextChunk.
  const IndexedGuess* Next();

  // Appends copies of the next up to `max_chunk` guesses to *out
  // (preserving existing elements) and returns how many were appended;
  // fewer than max_chunk only at the end, 0 once exhausted.
  std::size_t NextChunk(std::size_t max_chunk, std::vector<IndexedGuess>* out);

  // Guesses emitted so far; equals the total enumeration count once
  // exhausted() holds.
  std::size_t produced() const { return produced_; }

  // Next has returned nullptr: no further guesses.
  bool exhausted() const { return done_; }

  // The enumeration ran to its end with no guess at or beyond global
  // index max_guesses. Only meaningful once exhausted() holds.
  bool complete() const { return done_ && complete_; }

 private:
  // One load or CAS step of the chosen paths and the read sources it may
  // take under the current modification orders (a read_dis_pos each,
  // kEnvSource for env); `digit` indexes `sources`.
  struct ReadSlot {
    std::size_t thread = 0;
    std::size_t step = 0;
    std::size_t var = 0;
    bool cas = false;
    std::vector<int> sources;
    std::size_t digit = 0;
  };
  // One store event: (dis thread, step index).
  using StoreEvent = std::pair<int, int>;
  static constexpr int kEnvSource = -1;

  bool Start();  // phase A and the first guess; false if there is none
  bool Step();   // the odometers' successor; false after the last guess
  void ChoosePaths(std::size_t t);   // path digits t.. changed
  void ChooseMerges(std::size_t x);  // merge digits x.. changed
  void ApplyMerge(std::size_t x);
  void SetSources(ReadSlot& r);
  void ApplyRead(const ReadSlot& r);
  void Finish(bool complete);

  const SimplSystem& sys_;
  const GuessEnumOptions options_;
  std::vector<std::vector<ThreadGuess>> paths_;  // per dis thread
  std::vector<std::size_t> path_digit_;
  // Per variable: every interleaving of its store events.
  std::vector<std::vector<std::vector<StoreEvent>>> merges_;
  std::vector<std::size_t> merge_digit_;
  std::vector<ReadSlot> reads_;
  IndexedGuess current_;
  std::size_t next_index_ = 0;  // global index of the odometers' state
  std::size_t produced_ = 0;
  bool paths_complete_ = true;  // no thread had more than max_guesses paths
  bool started_ = false;
  bool done_ = false;
  bool complete_ = false;
};

}  // namespace rapar

#endif  // RAPAR_ENCODING_DIS_GUESS_H_
