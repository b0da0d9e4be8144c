// Pins the simplified explorer's absolute state counts on a fixed set of
// queries: the catalog's assert queries and generated systems in three
// shapes (one dis thread, a CAS-enabled dis thread, two dis threads),
// each asked both its assert query and its Message-Generation goal.
// equivalence_test and the differentials compare verdicts; a change to
// how the explorer deduplicates abstract configurations keeps every
// verdict but moves `verify.states`, and the witness with it. Any change
// to the state space the explorer builds must keep these rows — verdict,
// `verify.states` and the rendered witness's length in bytes — exactly
// as they are. The values were recorded while the explorer still pruned
// configurations covered by a seen one (equal dis part, superset env
// parts); dedup by equality alone reproduces every row.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/verifier.h"
#include "generated_systems.h"

namespace rapar {
namespace {

struct Pinned {
  std::string verdict;
  std::size_t states;
  std::size_t witness_bytes;
};

Pinned Measure(const ParamSystem& sys,
               std::optional<std::pair<VarId, Value>> goal) {
  const Verdict v = SafetyVerifier(sys).Run(goal, VerifierOptions{});
  return Pinned{std::string(VerdictName(v.result)),
                v.telemetry.counter(obs::metric::kStates), v.witness.size()};
}

// One pinned row in the table syntax below, so a failure prints the
// measured row ready to paste.
std::string Row(const Pinned& p) {
  return "{\"" + p.verdict + "\", " + std::to_string(p.states) + ", " +
         std::to_string(p.witness_bytes) + "}";
}

void ExpectPinned(const Pinned& want, const Pinned& got,
                  const std::string& label) {
  EXPECT_EQ(Row(want), Row(got)) << label;
}

TEST(ExplorerPinTest, CatalogAssertQueries) {
  const std::pair<const char*, Pinned> want[] = {
      {"producer-consumer(z=2)", {"unsafe", 10, 461}},
      {"producer-consumer(z=4)", {"unsafe", 24, 741}},
      {"peterson-ra", {"unsafe", 188, 783}},
      {"dekker-fences", {"unsafe", 54, 541}},
      {"lamport-2-ra", {"unsafe", 258, 866}},
      {"barrier", {"unsafe", 6, 356}},
      {"spinlock", {"safe", 24, 0}},
      {"chase-lev-deque", {"safe", 14, 0}},
      {"rcu", {"safe", 5, 0}},
      {"phoenix-accumulate(bound=3)", {"unsafe", 8, 580}},
      {"seqlock", {"safe", 6, 0}},
      {"peterson-handover", {"safe", 9, 0}},
      {"dekker-cas", {"safe", 84, 0}},
  };
  const std::vector<BenchmarkCase> catalog = StandardBenchmarks();
  ASSERT_EQ(catalog.size(), std::size(want));
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].name, want[i].first);
    ExpectPinned(want[i].second, Measure(catalog[i].system, std::nullopt),
                 catalog[i].name);
  }
}

// A generated system's assert query (SAFE by construction: RandomProgram
// never emits `assert false`, so the explorer exhausts the state space)
// and its guess-heavy Message-Generation goal.
struct GeneratedRow {
  std::uint64_t seed;
  Pinned assert_query;
  Pinned mg_query;
};

void ExpectGeneratedPinned(const GeneratedRow& row, const ParamSystem& sys,
                           const std::string& shape) {
  const std::string label = shape + " seed " + std::to_string(row.seed);
  ExpectPinned(row.assert_query, Measure(sys, std::nullopt),
               label + " assert");
  ExpectPinned(row.mg_query, Measure(sys, GuessHeavyGoal(sys, row.seed)),
               label + " mg");
}

TEST(ExplorerPinTest, GeneratedOneDisThread) {
  const GeneratedRow want[] = {
      {0, {"safe", 2, 0}, {"safe", 2, 0}},
      {1, {"safe", 8, 0}, {"safe", 8, 0}},
      {2, {"safe", 3, 0}, {"unsafe", 1, 263}},
      {3, {"safe", 2, 0}, {"unsafe", 1, 327}},
      {4, {"safe", 30, 0}, {"unsafe", 15, 197}},
      {5, {"safe", 7, 0}, {"safe", 7, 0}},
      {6, {"safe", 1, 0}, {"safe", 1, 0}},
      {7, {"safe", 9, 0}, {"safe", 9, 0}},
      {8, {"safe", 17, 0}, {"unsafe", 1, 130}},
      {9, {"safe", 2, 0}, {"safe", 2, 0}},
      {10, {"safe", 3, 0}, {"safe", 3, 0}},
      {11, {"safe", 3, 0}, {"safe", 3, 0}},
      {12, {"safe", 3, 0}, {"safe", 3, 0}},
      {13, {"safe", 22, 0}, {"safe", 22, 0}},
      {14, {"safe", 17, 0}, {"safe", 17, 0}},
      {15, {"safe", 3, 0}, {"safe", 3, 0}},
      {16, {"safe", 25, 0}, {"safe", 25, 0}},
      {17, {"safe", 5, 0}, {"safe", 5, 0}},
      {18, {"safe", 3, 0}, {"safe", 3, 0}},
      {19, {"safe", 2, 0}, {"safe", 2, 0}},
      {20, {"safe", 8, 0}, {"safe", 8, 0}},
      {21, {"safe", 4, 0}, {"safe", 4, 0}},
      {22, {"safe", 10, 0}, {"safe", 10, 0}},
      {23, {"safe", 2, 0}, {"safe", 2, 0}},
      {24, {"safe", 9, 0}, {"safe", 9, 0}},
      {25, {"safe", 6, 0}, {"safe", 6, 0}},
      {26, {"safe", 2, 0}, {"safe", 2, 0}},
      {27, {"safe", 1, 0}, {"safe", 1, 0}},
      {28, {"safe", 3, 0}, {"safe", 3, 0}},
      {29, {"safe", 10, 0}, {"safe", 10, 0}},
      {30, {"safe", 2, 0}, {"safe", 2, 0}},
      {31, {"safe", 9, 0}, {"safe", 9, 0}},
  };
  for (const GeneratedRow& row : want) {
    ExpectGeneratedPinned(row, RandGuessySystem(row.seed), "one-dis");
  }
}

TEST(ExplorerPinTest, GeneratedCasDisThread) {
  const GeneratedRow want[] = {
      {0, {"safe", 2, 0}, {"safe", 2, 0}},
      {1, {"safe", 17, 0}, {"safe", 17, 0}},
      {2, {"safe", 3, 0}, {"unsafe", 1, 263}},
      {3, {"safe", 2, 0}, {"unsafe", 1, 327}},
      {4, {"safe", 30, 0}, {"unsafe", 15, 197}},
      {5, {"safe", 7, 0}, {"safe", 7, 0}},
      {6, {"safe", 1, 0}, {"safe", 1, 0}},
      {7, {"safe", 9, 0}, {"safe", 9, 0}},
      {8, {"safe", 17, 0}, {"unsafe", 1, 130}},
      {9, {"safe", 2, 0}, {"safe", 2, 0}},
      {10, {"safe", 3, 0}, {"safe", 3, 0}},
      {11, {"safe", 3, 0}, {"safe", 3, 0}},
      {12, {"safe", 3, 0}, {"safe", 3, 0}},
      {13, {"safe", 22, 0}, {"safe", 22, 0}},
      {14, {"safe", 17, 0}, {"safe", 17, 0}},
      {15, {"safe", 3, 0}, {"safe", 3, 0}},
      {16, {"safe", 42, 0}, {"safe", 42, 0}},
      {17, {"safe", 5, 0}, {"safe", 5, 0}},
      {18, {"safe", 3, 0}, {"safe", 3, 0}},
      {19, {"safe", 2, 0}, {"safe", 2, 0}},
      {20, {"safe", 8, 0}, {"safe", 8, 0}},
      {21, {"safe", 4, 0}, {"safe", 4, 0}},
      {22, {"safe", 12, 0}, {"safe", 12, 0}},
      {23, {"safe", 2, 0}, {"safe", 2, 0}},
      {24, {"safe", 9, 0}, {"safe", 9, 0}},
      {25, {"safe", 6, 0}, {"safe", 6, 0}},
      {26, {"safe", 2, 0}, {"safe", 2, 0}},
      {27, {"safe", 1, 0}, {"safe", 1, 0}},
      {28, {"safe", 22, 0}, {"safe", 22, 0}},
      {29, {"safe", 15, 0}, {"safe", 15, 0}},
      {30, {"safe", 2, 0}, {"safe", 2, 0}},
      {31, {"safe", 11, 0}, {"safe", 11, 0}},
  };
  for (const GeneratedRow& row : want) {
    ExpectGeneratedPinned(
        row, RandGuessySystem(row.seed, 3, /*dis_cas=*/true), "cas-dis");
  }
}

TEST(ExplorerPinTest, GeneratedTwoDisThreads) {
  const GeneratedRow want[] = {
      {0, {"safe", 14, 0}, {"safe", 14, 0}},
      {1, {"safe", 15, 0}, {"safe", 15, 0}},
      {2, {"safe", 52, 0}, {"unsafe", 1, 263}},
      {3, {"safe", 21, 0}, {"unsafe", 1, 327}},
      {4, {"safe", 45, 0}, {"safe", 45, 0}},
      {5, {"safe", 24, 0}, {"safe", 24, 0}},
      {6, {"safe", 4, 0}, {"safe", 4, 0}},
      {7, {"safe", 56, 0}, {"safe", 56, 0}},
      {8, {"safe", 35, 0}, {"unsafe", 1, 197}},
      {9, {"safe", 18, 0}, {"safe", 18, 0}},
      {10, {"safe", 56, 0}, {"safe", 56, 0}},
      {11, {"safe", 30, 0}, {"safe", 30, 0}},
      {12, {"safe", 127, 0}, {"safe", 127, 0}},
      {13, {"safe", 18, 0}, {"safe", 18, 0}},
      {14, {"safe", 44, 0}, {"safe", 44, 0}},
      {15, {"safe", 56, 0}, {"safe", 56, 0}},
      {16, {"safe", 68, 0}, {"safe", 68, 0}},
      {17, {"safe", 52, 0}, {"safe", 52, 0}},
      {18, {"safe", 23, 0}, {"safe", 23, 0}},
      {19, {"safe", 16, 0}, {"safe", 16, 0}},
      {20, {"safe", 12, 0}, {"safe", 12, 0}},
      {21, {"safe", 8, 0}, {"safe", 8, 0}},
      {22, {"safe", 8, 0}, {"safe", 8, 0}},
      {23, {"safe", 4, 0}, {"safe", 4, 0}},
      {24, {"safe", 14, 0}, {"safe", 14, 0}},
      {25, {"safe", 10, 0}, {"safe", 10, 0}},
      {26, {"safe", 4, 0}, {"safe", 4, 0}},
      {27, {"safe", 3, 0}, {"safe", 3, 0}},
      {28, {"safe", 6, 0}, {"safe", 6, 0}},
      {29, {"safe", 9, 0}, {"safe", 9, 0}},
      {30, {"safe", 30, 0}, {"safe", 30, 0}},
      {31, {"safe", 12, 0}, {"safe", 12, 0}},
  };
  for (const GeneratedRow& row : want) {
    ExpectGeneratedPinned(row, RandGuessyTwoDisSystem(row.seed), "two-dis");
  }
}

}  // namespace
}  // namespace rapar
