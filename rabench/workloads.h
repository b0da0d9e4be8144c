// Workload definitions of the rapar benchmark (see rabench/README.md).
//
// A workload is a fixed corpus of verification queries ("entries") and a
// seeded request list over it. The corpus is the same for every seed, so
// runs with different seeds measure the same work; the seed picks the
// request order and, on serve-mixed, the repeat traffic. Everything here
// goes through the library facade only (core/, lang/, lowerbound/), so a
// refactor of an inner layer cannot break the end-to-end runs.
#ifndef RABENCH_WORKLOADS_H_
#define RABENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/param_system.h"
#include "core/verifier.h"

namespace rabench {

// One verification query of the corpus, as program text.
struct Entry {
  std::string id;  // stable label: "gen:17", "cat:dekker-cas", "qbf:3"
  std::string env_text;
  std::vector<std::string> dis_texts;
  std::string goal_var;  // empty: assert-false query, else Message Generation
  rapar::Value goal_val = 0;
  rapar::Backend backend = rapar::Backend::kSimplifiedExplorer;
  // Analytic answer (catalog cases, EvalQbf on TQBF instances); unset when
  // a second backend has to provide the oracle.
  std::optional<bool> expected_unsafe;
  // The serve request line (serve workloads only).
  std::string line;
};

struct Workload {
  bool serve = false;
  std::vector<Entry> entries;
  // The request list: indices into `entries`, in order.
  std::vector<std::uint32_t> requests;
  // The request list is a sequence of replicates (a pass over the corpus,
  // or one serve stream); these are their first request indices, in
  // increasing order, starting at 0. Each serve stream runs on a fresh
  // session. Metrics are computed per replicate and reported as the
  // median over replicates, so a few seconds of machine drift move one
  // replicate, not the run.
  std::vector<std::size_t> replicate_starts;
  // The timed driver samples the reference work reference_per_gap times
  // before every reference_every-th request: about once per 10 ms of
  // timed CPU, at most four times between two requests, so the machine's
  // speed is measured where the requests run (README.md, "Machine speed").
  std::size_t reference_every = 1;
  int reference_per_gap = 1;
};

// Generates workload `name` for `seed`, with a request count sized for
// about `seconds` of timed CPU on a 4-vCPU x86 VM. The count depends only
// on (name, seed, seconds), never on the clock. Throws
// std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int seconds);

// The parsed form of an entry: ParseProgram on every text, then
// ParamSystem::Builder::Build, and the goal resolved to ids.
struct BuiltEntry {
  std::unique_ptr<rapar::ParamSystem> system;
  std::optional<std::pair<rapar::VarId, rapar::Value>> goal;
};
BuiltEntry BuildEntry(const Entry& e);

// VerifierOptions for an entry: the library defaults with only the
// backend set.
rapar::VerifierOptions OptionsFor(const Entry& e);

// Renders the request list as one JSON object per line (the byte-exact
// form the determinism test compares).
std::string DumpRequests(const Workload& w);

// A corpus defined by guess count: the generator seeds in
// [first_seed, seed_limit) whose Message-Generation query enumerates
// min..max dis guesses after the verifier's pre-pass. The lists are fixed
// in *_seeds.inc so the timed driver never calls the enumerator;
// `rabench_traced band NAME` recomputes them and the determinism test
// compares.
struct GuessBand {
  const char* name;
  int first_seed;
  int seed_limit;
  std::size_t min;
  std::size_t max;
};
// guess-heavy: many guesses, so per-guess makeP + dlopt dominate.
inline constexpr GuessBand kGuessHeavyBand = {"guess-heavy", 0, 600, 16,
                                              512};
// serve-mixed's Datalog share: light queries, so the share exercises the
// serve path without turning serve-mixed into a second Datalog workload.
inline constexpr GuessBand kServeDatalogBand = {"serve-datalog", 1000, 1100,
                                                1, 32};
const std::vector<int>& BandSeeds(const GuessBand& band);

// The warm-up request of the serve workloads: a catalog verify line, sent
// to a throwaway session during set-up.
std::string ServeWarmUpLine();

// The k-th instance of the tqbf-eval corpus: TqbfSystem(RandomQbf(n=3,
// 3 literals)) from generator seed k, with EvalQbf as its answer.
Entry TqbfEntry(int k);

// The generated system of generator seed `seed` (the rand-guessy shape of
// bench_backends: 3 vars, 3 regs, dom 4, env size 10, dis size 8, no CAS,
// no loops) with its fixed Message-Generation goal, as an Entry.
Entry GeneratedEntry(int seed, rapar::Backend backend);

}  // namespace rabench

#endif  // RABENCH_WORKLOADS_H_
