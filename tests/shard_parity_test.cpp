// Differential checks for multi-process guess-space sharding and
// checkpoint/resume (core/shard.h, DESIGN.md §14). The contract under
// test: stride sharding partitions the guess enumeration, so merging
// per-shard envelopes under first-terminating-event-wins must reproduce
// the single-process verdict, witness and guess accounting bit for bit —
// at every shard count × thread count combination — and a scan killed at
// a checkpoint must resume to the same verdict without rescanning the
// guesses it already solved.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/shard.h"
#include "core/verifier.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

using Goal = std::optional<std::pair<VarId, Value>>;

VerifierOptions ShardOpts(unsigned threads, std::size_t shard_index,
                          std::size_t shard_count,
                          std::size_t max_guesses = 2'000) {
  VerifierOptions o;
  o.backend = Backend::kDatalog;
  o.datalog.threads = threads;
  o.datalog.batch_size = 8;
  o.datalog.shard_index = shard_index;
  o.datalog.shard_count = shard_count;
  o.max_guesses = max_guesses;
  return o;
}

std::string RenderEnvelope(const ParamSystem& sys, const Goal& goal,
                           const VerifierOptions& o) {
  SafetyVerifier verifier(sys);
  const Verdict v = verifier.Run(goal, o);
  return VerdictToJson(v, o, goal.has_value() ? "mg" : "verify",
                       sys.Signature());
}

const JsonValue* Field(const JsonValue& doc, const char* key) {
  static const JsonValue null_value;
  const JsonValue* v = doc.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v != nullptr ? v : &null_value;
}

// The single-process-comparable slice of an envelope: verdict, exit
// code, witness, guess accounting, width report, stopped phase. (The
// remaining telemetry sums *work performed*, which legitimately exceeds
// the single-process prefix — shards do not cancel each other.)
void ExpectMergedMatchesSingle(const std::string& single_env,
                               const std::vector<std::string>& shard_envs,
                               const std::string& label) {
  const Expected<MergedShardEnvelope> merged =
      MergeShardEnvelopes(shard_envs, /*pretty=*/true);
  ASSERT_TRUE(merged.ok()) << label << ": " << merged.error();

  Expected<JsonValue> s = ParseJson(single_env);
  Expected<JsonValue> m = ParseJson(merged.value().envelope_json);
  ASSERT_TRUE(s.ok()) << label << ": " << s.error();
  ASSERT_TRUE(m.ok()) << label << ": " << m.error();

  EXPECT_EQ(Field(s.value(), "verdict")->string,
            Field(m.value(), "verdict")->string)
      << label;
  EXPECT_EQ(Field(m.value(), "verdict")->string, merged.value().verdict)
      << label;
  EXPECT_EQ(Field(s.value(), "exit_code")->integer,
            Field(m.value(), "exit_code")->integer)
      << label;
  EXPECT_EQ(Field(s.value(), "exit_code")->integer,
            merged.value().exit_code)
      << label;

  const JsonValue* sw = Field(s.value(), "witness");
  const JsonValue* mw = Field(m.value(), "witness");
  EXPECT_EQ(sw->is_null(), mw->is_null()) << label;
  if (!sw->is_null() && !mw->is_null()) {
    EXPECT_EQ(sw->string, mw->string) << label;
  }

  const JsonValue* st = Field(s.value(), "telemetry");
  const JsonValue* mt = Field(m.value(), "telemetry");
  const JsonValue* sg = st->Find("verify.guesses");
  const JsonValue* mg = mt->Find("verify.guesses");
  ASSERT_NE(sg, nullptr) << label;
  ASSERT_NE(mg, nullptr) << label;
  EXPECT_EQ(sg->uinteger, mg->uinteger) << label;

  // width_report renders from the first solve of the run; guess 0 lives
  // in shard 0's residue class, so the merged report (= shard 0's) must
  // equal the single-process one.
  const JsonValue* swr = s.value().Find("width_report");
  const JsonValue* mwr = m.value().Find("width_report");
  ASSERT_EQ(swr == nullptr, mwr == nullptr) << label;
  if (swr != nullptr) {
    EXPECT_EQ(swr->string, mwr->string) << label;
  }

  // The merged envelope advertises the orchestrator shard section.
  const JsonValue* shard = Field(m.value(), "shard");
  ASSERT_TRUE(shard->is_object()) << label;
  EXPECT_EQ(Field(*shard, "count")->uinteger, shard_envs.size()) << label;
  const JsonValue* per = Field(*shard, "per_shard");
  ASSERT_TRUE(per->is_array()) << label;
  EXPECT_EQ(per->items.size(), shard_envs.size()) << label;
  // The single-process envelope must NOT have one (activity gating).
  EXPECT_EQ(s.value().Find("shard"), nullptr) << label;
}

void CheckSystem(const ParamSystem& sys, const Goal& goal,
                 const std::vector<std::size_t>& shard_counts,
                 const std::vector<unsigned>& thread_counts,
                 const std::string& label, std::size_t max_guesses = 2'000) {
  const std::string single =
      RenderEnvelope(sys, goal, ShardOpts(/*threads=*/1, 0, 1, max_guesses));
  for (const std::size_t shards : shard_counts) {
    for (const unsigned threads : thread_counts) {
      std::vector<std::string> envs;
      for (std::size_t i = 0; i < shards; ++i) {
        envs.push_back(RenderEnvelope(
            sys, goal, ShardOpts(threads, i, shards, max_guesses)));
      }
      ExpectMergedMatchesSingle(
          single, envs,
          label + " shards=" + std::to_string(shards) + " threads=" +
              std::to_string(threads));
    }
  }
}

TEST(ShardParityTest, CatalogMergedIdenticalAcrossShardAndThreadCounts) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    CheckSystem(bench.system, std::nullopt, {2, 4}, {1u, 2u}, bench.name);
  }
}

TEST(ShardParityTest, RandomSystemsMergedIdenticalAcrossTwoHundredSeeds) {
  // Same corpus recipe as parallel_differential_test: even seeds ask an
  // MG question (mostly early-exit unsafe), odd seeds the assert-false
  // query (mostly safe full scans), so both merge rules — winner-takes
  // and sum-of-exhaustive-shards — are exercised hundreds of times.
  int unsafe_seen = 0;
  int safe_seen = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    RandomProgramOptions env_opts;
    env_opts.num_vars = 2;
    env_opts.num_regs = 2;
    env_opts.dom = 3;
    env_opts.size = 5;
    env_opts.allow_cas = false;
    env_opts.allow_loops = false;
    RandomProgramOptions dis_opts = env_opts;
    dis_opts.size = 4;

    Program env = RandomProgram(rng, env_opts, "env");
    Program dis = RandomProgram(rng, dis_opts, "dis");
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << "seed " << seed << ": "
                          << (sys.ok() ? "" : sys.error());
    Goal goal;
    if (seed % 2 == 0) {
      const VarId v0 = sys.value().vars().Find("v0");
      ASSERT_TRUE(v0.valid()) << "seed " << seed;
      goal = {v0, static_cast<Value>((seed / 2) % 3)};
    }
    // Shard-count sweep at one thread; the thread axis is covered on the
    // catalog above and at shards=2 here to bound the corpus runtime.
    const std::string label = "seed " + std::to_string(seed);
    CheckSystem(sys.value(), goal, {2, 4}, {1u}, label, /*max_guesses=*/500);
    CheckSystem(sys.value(), goal, {2}, {2u}, label, /*max_guesses=*/500);

    const std::string single =
        RenderEnvelope(sys.value(), goal, ShardOpts(1, 0, 1, 500));
    Expected<JsonValue> doc = ParseJson(single);
    ASSERT_TRUE(doc.ok());
    const std::string verdict = doc.value().Find("verdict")->string;
    unsafe_seen += verdict == "unsafe";
    safe_seen += verdict == "safe";
  }
  // The corpus must exercise both merge rules: winner-takes (unsafe early
  // exits) and sum-of-exhaustive-shards (safe full scans).
  EXPECT_GT(unsafe_seen, 20);
  EXPECT_GT(safe_seen, 50);
}

TEST(ShardParityTest, ShardsPartitionTheEnumeration) {
  // The residue classes of the stride filter are a partition: the union
  // of per-shard index streams is exactly the full stream, disjointly.
  BenchmarkCase bench = PetersonRa();
  const SimplSystem& sys = bench.system.simpl();
  GuessEnumOptions opts;

  const auto stream = [&sys](const GuessEnumOptions& o) {
    DisGuessCursor cursor(sys, o);
    std::vector<IndexedGuess> all;
    std::vector<IndexedGuess> chunk;
    while (cursor.NextChunk(16, &chunk) != 0) {
      for (IndexedGuess& g : chunk) all.push_back(std::move(g));
      chunk.clear();
    }
    return all;
  };

  const std::vector<IndexedGuess> full = stream(opts);
  ASSERT_GT(full.size(), 20u);
  for (const std::size_t shards : {2u, 3u, 4u}) {
    std::vector<bool> seen(full.size(), false);
    for (std::size_t i = 0; i < shards; ++i) {
      GuessEnumOptions so = opts;
      so.shard_index = i;
      so.shard_count = shards;
      for (const IndexedGuess& g : stream(so)) {
        ASSERT_LT(g.index, full.size());
        ASSERT_EQ(g.index % shards, i);
        ASSERT_FALSE(seen[g.index]) << "duplicate index " << g.index;
        seen[g.index] = true;
        EXPECT_EQ(g.guess.ToString(sys), full[g.index].guess.ToString(sys));
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "index " << i << " missing at " << shards;
    }
  }
}

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
  cp.shard_index = 2;
  cp.shard_count = 4;
  cp.next_index = 37;
  cp.scanned = 9;
  cp.exhausted = false;
  const std::string json = cp.ToJson();
  const Expected<CursorCheckpoint> back = CursorCheckpoint::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().shard_index, cp.shard_index);
  EXPECT_EQ(back.value().shard_count, cp.shard_count);
  EXPECT_EQ(back.value().next_index, cp.next_index);
  EXPECT_EQ(back.value().scanned, cp.scanned);
  EXPECT_EQ(back.value().exhausted, cp.exhausted);
  // Re-serialization is bit-stable.
  EXPECT_EQ(back.value().ToJson(), json);
}

TEST(ShardParityTest, CorruptedCheckpointsRejected) {
  EXPECT_FALSE(CursorCheckpoint::FromJson("not json").ok());
  EXPECT_FALSE(CursorCheckpoint::FromJson("{}").ok());
  EXPECT_FALSE(CursorCheckpoint::FromJson("[1,2,3]").ok());
  // Version mismatch is an error, never a zeroed checkpoint.
  EXPECT_FALSE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":99,"kind":"rapar-cursor-checkpoint",)"
          R"("shard_index":0,"shard_count":1,"next_index":0,)"
          R"("scanned":0,"exhausted":false})")
          .ok());
  // Wrong document kind.
  EXPECT_FALSE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":1,"kind":"something-else",)"
          R"("shard_index":0,"shard_count":1,"next_index":0,)"
          R"("scanned":0,"exhausted":false})")
          .ok());
  // shard_index out of range.
  EXPECT_FALSE(
      CursorCheckpoint::FromJson(
          R"({"schema_version":1,"kind":"rapar-cursor-checkpoint",)"
          R"("shard_index":3,"shard_count":2,"next_index":0,)"
          R"("scanned":0,"exhausted":false})")
          .ok());
}

TEST(ShardParityTest, CheckpointFileRoundTripAndRejection) {
  const std::string path = testing::TempDir() + "/rapar_cp_test.json";
  CursorCheckpoint cp;
  cp.shard_index = 1;
  cp.shard_count = 2;
  cp.next_index = 11;
  cp.scanned = 5;
  const Expected<bool> saved = SaveCheckpointFile(path, cp);
  ASSERT_TRUE(saved.ok()) << saved.error();
  const Expected<CursorCheckpoint> loaded = LoadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().next_index, 11u);
  EXPECT_EQ(loaded.value().scanned, 5u);

  EXPECT_FALSE(LoadCheckpointFile(path + ".does-not-exist").ok());
}

TEST(ShardParityTest, ScanLimitCheckpointResumesToSameVerdictWithoutRescan) {
  // dekker-cas: safe-exhaustive over 384 guesses. Truncate the scan after
  // 10 guesses (the deterministic stand-in for a kill), capture the
  // checkpoint, resume from it, and demand (a) the same verdict and
  // guess count as the uninterrupted run and (b) an exact work split —
  // guesses scanned (solved or skipped) before + after == uninterrupted
  // total, i.e. no guess was scanned twice. Solves alone do not add up:
  // each run solves its first guess for the width report, where the
  // uninterrupted run skips guess 10.
  BenchmarkCase bench = DekkerCas();
  DatalogVerifierOptions base;
  base.guess.max_guesses = 2'000;
  base.threads = 1;

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
  EXPECT_EQ(cp->scanned, 10u);
  EXPECT_FALSE(cp->exhausted);

  DatalogVerifierOptions second = base;
  second.guess.start_index = cp->next_index;
  second.resume_scanned_base = cp->scanned;
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

TEST(ShardParityTest, ParallelScanLimitResumesToSameVerdict) {
  // Same kill-and-resume contract under the parallel dispatcher: the
  // checkpoint frontier is conservative (contiguous completed batches),
  // so the resumed run may redo a ragged tail but must land on the same
  // verdict and guess count.
  BenchmarkCase bench = DekkerCas();
  DatalogVerifierOptions base;
  base.guess.max_guesses = 2'000;
  base.threads = 1;
  const DatalogVerdict full = DatalogVerify(bench.system.simpl(), base);

  DatalogVerifierOptions first = base;
  first.threads = 2;
  first.batch_size = 4;
  first.scan_limit = 12;
  std::optional<CursorCheckpoint> cp;
  first.checkpoint_sink = [&](const CursorCheckpoint& c) { cp = c; };
  const DatalogVerdict v1 = DatalogVerify(bench.system.simpl(), first);
  EXPECT_TRUE(v1.scan_limit_hit);
  ASSERT_TRUE(cp.has_value());
  EXPECT_FALSE(cp->exhausted);
  EXPECT_LE(cp->next_index, 12u);
  EXPECT_EQ(cp->next_index, cp->scanned);  // single shard: frontier == count

  DatalogVerifierOptions second = base;
  second.threads = 2;
  second.batch_size = 4;
  second.guess.start_index = cp->next_index;
  second.resume_scanned_base = cp->scanned;
  const DatalogVerdict v2 = DatalogVerify(bench.system.simpl(), second);
  EXPECT_EQ(v2.unsafe, full.unsafe);
  EXPECT_EQ(v2.exhaustive, full.exhaustive);
  EXPECT_EQ(v2.guesses, full.guesses);
}

TEST(ShardParityTest, MergeRejectsMalformedInputs) {
  EXPECT_FALSE(MergeShardEnvelopes({}, false).ok());
  EXPECT_FALSE(MergeShardEnvelopes({"not json"}, false).ok());

  // A default (unsharded) envelope has no "shard" section and must be
  // rejected as not-a-shard-envelope, not silently merged.
  BenchmarkCase bench = ProducerConsumer(1);
  const std::string plain =
      RenderEnvelope(bench.system, std::nullopt, ShardOpts(1, 0, 1));
  const Expected<MergedShardEnvelope> r1 = MergeShardEnvelopes({plain}, false);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.error().find("shard"), std::string::npos) << r1.error();

  // Duplicate shard indices (two copies of shard 0 of 2).
  const std::string shard0 =
      RenderEnvelope(bench.system, std::nullopt, ShardOpts(1, 0, 2));
  EXPECT_FALSE(MergeShardEnvelopes({shard0, shard0}, false).ok());

  // Wrong envelope count for the advertised shard count.
  EXPECT_FALSE(MergeShardEnvelopes({shard0}, false).ok());
}

TEST(ShardParityTest, RunShardProcessesCapturesOutputAndExitCodes) {
  const Expected<std::vector<ShardProcessResult>> r = RunShardProcesses(
      {{"/bin/sh", "-c", "echo hello"}, {"/bin/sh", "-c", "exit 7"}});
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].exit_code, 0);
  EXPECT_EQ(r.value()[0].stdout_text, "hello\n");
  EXPECT_EQ(r.value()[1].exit_code, 7);
  // An unexecutable child surfaces as exit 127 (the exec-failure
  // convention), not a runner error.
  const Expected<std::vector<ShardProcessResult>> bad =
      RunShardProcesses({{"/no/such/binary"}});
  ASSERT_TRUE(bad.ok()) << bad.error();
  EXPECT_EQ(bad.value()[0].exit_code, 127);
}

}  // namespace
}  // namespace rapar
