// Checkpoint/resume of the Datalog guess scan (DESIGN.md §8). The
// contract under test: a cursor started at a resume offset yields exactly
// the rest of the enumeration, a checkpoint round-trips through JSON and
// its file and a corrupt or foreign-format one is rejected, and a scan
// killed at a checkpoint resumes to the same verdict and guess count
// without rescanning the guesses it already scanned. (The suite kept its
// name from when it also covered multi-process sharding, which DESIGN.md
// §14 records as removed.)
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/benchmarks.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"

namespace rapar {
namespace {

TEST(ShardParityTest, ResumeCursorYieldsExactlyTheRemainingSequence) {
  BenchmarkCase bench = PetersonRa();
  const SimplSystem& sys = bench.system.simpl();
  GuessEnumOptions opts;
  DisGuessCursor full_cursor(sys, opts);
  std::vector<IndexedGuess> full;
  std::vector<IndexedGuess> chunk;
  while (full_cursor.NextChunk(16, &chunk) != 0) {
    for (IndexedGuess& g : chunk) full.push_back(std::move(g));
    chunk.clear();
  }

  for (const std::size_t start : {std::size_t{5}, std::size_t{17}}) {
    GuessEnumOptions ro = opts;
    ro.start_index = start;
    DisGuessCursor cursor(sys, ro);
    std::vector<IndexedGuess> tail;
    chunk.clear();
    while (cursor.NextChunk(16, &chunk) != 0) {
      for (IndexedGuess& g : chunk) tail.push_back(std::move(g));
      chunk.clear();
    }
    ASSERT_EQ(tail.size(), full.size() - start) << start;
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].index, full[start + i].index) << start;
      EXPECT_EQ(tail[i].guess.ToString(sys),
                full[start + i].guess.ToString(sys))
          << start;
    }
  }
}

TEST(ShardParityTest, CheckpointJsonRoundTrip) {
  CursorCheckpoint cp;
  cp.query = "0123456789abcdef0123456789abcdef";
  cp.next_index = 37;
  cp.exhausted = false;
  const std::string json = cp.ToJson();
  const Expected<CursorCheckpoint> back = CursorCheckpoint::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().query, cp.query);
  EXPECT_EQ(back.value().next_index, cp.next_index);
  EXPECT_EQ(back.value().exhausted, cp.exhausted);
  // Re-serialization is bit-stable.
  EXPECT_EQ(back.value().ToJson(), json);
}

TEST(ShardParityTest, CorruptedCheckpointsRejected) {
  EXPECT_FALSE(CursorCheckpoint::FromJson("not json").ok());
  EXPECT_FALSE(CursorCheckpoint::FromJson("{}").ok());
  EXPECT_FALSE(CursorCheckpoint::FromJson("[1,2,3]").ok());
  // The well-formed document the rows below each break in one place.
  EXPECT_TRUE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":2,"kind":"rapar-cursor-checkpoint",)"
          R"("query":"q","next_index":0,"exhausted":false})")
          .ok());
  // Version mismatch is an error, never a zeroed checkpoint.
  EXPECT_FALSE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":99,"kind":"rapar-cursor-checkpoint",)"
          R"("query":"q","next_index":0,"exhausted":false})")
          .ok());
  // A version-1 checkpoint fails on its version before any field is read.
  const Expected<CursorCheckpoint> v1 = CursorCheckpoint::FromJson(
      R"({"schema_version":1,"kind":"rapar-cursor-checkpoint",)"
      R"("next_index":0,"exhausted":false})");
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.error().find("schema_version 1 unsupported"),
            std::string::npos)
      << v1.error();
  // Wrong document kind.
  EXPECT_FALSE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":2,"kind":"something-else",)"
          R"("query":"q","next_index":0,"exhausted":false})")
          .ok());
  // Missing query: a position that names no query cannot be checked.
  const Expected<CursorCheckpoint> no_query = CursorCheckpoint::FromJson(
      R"({"schema_version":2,"kind":"rapar-cursor-checkpoint",)"
      R"("next_index":0,"exhausted":false})");
  ASSERT_FALSE(no_query.ok());
  EXPECT_NE(no_query.error().find("'query'"), std::string::npos)
      << no_query.error();
  // A query that is not a string.
  const Expected<CursorCheckpoint> bad_query = CursorCheckpoint::FromJson(
      R"({"schema_version":2,"kind":"rapar-cursor-checkpoint",)"
      R"("query":7,"next_index":0,"exhausted":false})");
  ASSERT_FALSE(bad_query.ok());
  EXPECT_NE(bad_query.error().find("'query'"), std::string::npos)
      << bad_query.error();
  // A negative scan position.
  EXPECT_FALSE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":2,"kind":"rapar-cursor-checkpoint",)"
          R"("query":"q","next_index":-1,"exhausted":false})")
          .ok());
}

TEST(ShardParityTest, CheckpointFileRoundTripAndRejection) {
  const std::string path = testing::TempDir() + "/rapar_cp_test.json";
  CursorCheckpoint cp;
  cp.query = "q";
  cp.next_index = 11;
  const Expected<bool> saved = SaveCheckpointFile(path, cp);
  ASSERT_TRUE(saved.ok()) << saved.error();
  const Expected<CursorCheckpoint> loaded = LoadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().next_index, 11u);
  EXPECT_EQ(loaded.value().query, "q");

  EXPECT_FALSE(LoadCheckpointFile(path + ".does-not-exist").ok());
}

TEST(ShardParityTest, ScanLimitCheckpointResumesToSameVerdictWithoutRescan) {
  // dekker-cas: safe-exhaustive over 384 guesses. Truncate the scan after
  // 10 guesses (the deterministic stand-in for a kill), capture the
  // checkpoint, resume from it, and demand (a) the same verdict and
  // guess count as the uninterrupted run and (b) an exact work split —
  // guesses scanned (solved, skipped or shared) before + after ==
  // uninterrupted total, i.e. no guess was scanned twice.
  BenchmarkCase bench = DekkerCas();
  DatalogVerifierOptions base;
  base.guess.max_guesses = 2'000;

  const DatalogVerdict full = DatalogVerify(bench.system.simpl(), base);
  ASSERT_FALSE(full.unsafe);
  ASSERT_TRUE(full.exhaustive);
  ASSERT_EQ(full.guesses, 384u);

  DatalogVerifierOptions first = base;
  first.scan_limit = 10;
  std::optional<CursorCheckpoint> cp;
  std::size_t writes = 0;
  first.checkpoint_sink = [&](const CursorCheckpoint& c) {
    cp = c;
    ++writes;
  };
  const DatalogVerdict v1 = DatalogVerify(bench.system.simpl(), first);
  EXPECT_TRUE(v1.scan_limit_hit);
  EXPECT_FALSE(v1.exhaustive);
  EXPECT_EQ(v1.guesses, 10u);
  EXPECT_EQ(v1.checkpoint_writes, writes);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->next_index, 10u);
  EXPECT_FALSE(cp->exhausted);

  DatalogVerifierOptions second = base;
  second.guess.start_index = cp->next_index;
  const DatalogVerdict v2 = DatalogVerify(bench.system.simpl(), second);
  EXPECT_EQ(v2.unsafe, full.unsafe);
  EXPECT_EQ(v2.exhaustive, full.exhaustive);
  EXPECT_EQ(v2.guesses, full.guesses);
  EXPECT_EQ(v2.resume_offset, 10u);
  EXPECT_EQ(v1.queries_evaluated + v1.solves_skipped + v1.solves_shared +
                v2.queries_evaluated + v2.solves_skipped + v2.solves_shared,
            full.queries_evaluated + full.solves_skipped + full.solves_shared)
      << "resume rescanned already-scanned guesses";
}

}  // namespace
}  // namespace rapar
