// DisGuessCursor steps three nested odometers in place instead of running
// the recursive enumerator it replaced. This suite checks it against that
// enumerator, kept as tests/dis_guess_reference.h: guess for guess the
// same global index and the same guess (as ToString prints it), and at
// the end the same produced() and complete(), on the benchmark catalog,
// 200 systems of the guess-heavy shape, 100 with CAS in the dis thread,
// one with no dis thread and 60 with two dis threads, under every cap
// and resume setting below.
//
// The cursor's complete() differs from the reference's flag where the
// reference was wrong: a cap equal to the number of guesses cuts
// nothing, so there the expected flag is the reference's at cap + 1; and
// a system with no guess at all (a dis thread without an executable
// path) is complete under every cap, even when another thread has more
// paths than the cap.
//
// Two verifier tests ride along: a scan that ends exactly at max_guesses
// answers SAFE, and the telemetry of a threads-1 run does not depend on
// how the enumeration is scheduled.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/benchmarks.h"
#include "core/verifier.h"
#include "dis_guess_reference.h"
#include "encoding/dis_guess.h"
#include "generated_systems.h"
#include "lang/parser.h"

namespace rapar {
namespace {

// The reference's global indices under one setting, and its complete
// flag. The guess at an index does not depend on the setting (the
// filters suppress emission only), so each guess is printed once, from
// the run under the default options.
struct Reference {
  std::vector<std::size_t> indices;
  bool complete = false;
};

Reference RunReference(const SimplSystem& sys, const GuessEnumOptions& options,
                       std::vector<std::string>* texts = nullptr) {
  Reference r;
  for (const IndexedGuess& g :
       reference::ReferenceGuesses(sys, options, &r.complete)) {
    r.indices.push_back(g.index);
    if (texts != nullptr) texts->push_back(g.guess.ToString(sys));
  }
  return r;
}

// Walks a cursor under `options` and compares it with `want`, the
// reference's run under the same options; `texts` holds the reference's
// guesses by global index.
void ExpectMatchesReference(const SimplSystem& sys,
                            const GuessEnumOptions& options,
                            const Reference& want, bool want_complete,
                            const std::vector<std::string>& texts,
                            const std::string& label) {
  DisGuessCursor cursor(sys, options);
  std::size_t n = 0;
  while (const IndexedGuess* got = cursor.Next()) {
    ASSERT_LT(n, want.indices.size())
        << label << ": extra guess " << got->index;
    ASSERT_EQ(got->index, want.indices[n]) << label << ": guess " << n;
    ASSERT_EQ(got->guess.ToString(sys), texts[got->index])
        << label << ": global index " << got->index;
    ++n;
  }
  EXPECT_EQ(n, want.indices.size()) << label;
  EXPECT_TRUE(cursor.exhausted()) << label;
  EXPECT_EQ(cursor.produced(), want.indices.size()) << label;
  EXPECT_EQ(cursor.complete(), want_complete) << label;
}

// Every setting on one system: the default cap, caps 1, 7, total - 1,
// total and total + 1, and resuming at 5 and at total - 1, where `total`
// is the reference's guess count at the default cap.
void CheckSystem(const SimplSystem& sys, const std::string& label) {
  std::vector<std::string> texts;
  const Reference full = RunReference(sys, GuessEnumOptions{}, &texts);
  ASSERT_TRUE(full.complete) << label << ": corpus system past the cap";
  const std::size_t total = texts.size();
  GuessEnumOptions past_options;
  past_options.max_guesses = total + 1;
  const Reference past = RunReference(sys, past_options);

  const auto check = [&](const GuessEnumOptions& o, const Reference& want,
                         const std::string& setting) {
    // The reference's flag, except where nothing is cut.
    bool want_complete = want.complete;
    if (total == 0) {
      want_complete = true;
    } else if (o.max_guesses == total) {
      want_complete = past.complete;
    }
    ExpectMatchesReference(sys, o, want, want_complete, texts,
                           label + " " + setting);
  };
  check(GuessEnumOptions{}, full, "default");
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{7}, total - 1, total, total + 1}) {
    // A cap of 0 emits nothing (the reference still emits the one guess
    // of a system with no dis thread); CapZeroEmitsNothing covers it.
    if (cap == 0) continue;
    GuessEnumOptions o;
    o.max_guesses = cap;
    check(o, cap == total + 1 ? past : RunReference(sys, o),
          "cap " + std::to_string(cap));
  }
  for (const std::size_t start : {std::size_t{5}, total - 1}) {
    GuessEnumOptions o;
    o.start_index = start;
    check(o, RunReference(sys, o), "start " + std::to_string(start));
  }
}

TEST(DisGuessCursorTest, MatchesRecursiveReference) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    CheckSystem(bench.system.simpl(), bench.name);
  }
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    CheckSystem(RandGuessySystem(seed).simpl(),
                "guess-heavy seed " + std::to_string(seed));
  }
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    CheckSystem(RandGuessySystem(seed, 3, /*dis_cas=*/true).simpl(),
                "dis-cas seed " + std::to_string(seed));
  }
  CheckSystem(RandGuessySystem(0, 3, false, /*dis_threads=*/0).simpl(),
              "no dis thread");
}

// The two-dis-thread corpus, in a test of its own for ctest's
// parallelism: seed 36 alone enumerates 78,125 guesses.
TEST(DisGuessCursorTest, MatchesRecursiveReferenceOnTwoDisThreads) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    CheckSystem(RandGuessyTwoDisSystem(seed).simpl(),
                "two-dis seed " + std::to_string(seed));
  }
}

TEST(DisGuessCursorTest, CapZeroEmitsNothing) {
  const ParamSystem no_dis = RandGuessySystem(0, 3, false, /*dis_threads=*/0);
  const BenchmarkCase peterson = PetersonRa();
  for (const SimplSystem* sys : {&no_dis.simpl(), &peterson.system.simpl()}) {
    GuessEnumOptions o;
    o.max_guesses = 0;
    DisGuessCursor cursor(*sys, o);
    EXPECT_EQ(cursor.Next(), nullptr) << sys->dis.size();
    EXPECT_EQ(cursor.produced(), 0u) << sys->dis.size();
    EXPECT_FALSE(cursor.complete()) << sys->dis.size();
  }
}

// examples/programs/dekker_env.rap and dekker.rap: SAFE, 24 guesses.
ParamSystem Dekker() {
  const auto parse = [](const char* text) {
    Expected<Program> p = ParseProgram(text);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    return std::move(p).value();
  };
  Expected<ParamSystem> sys = ParamSystem::Builder()
                                  .Env(parse(R"(
    program env
    vars x y k c0 c1
    regs r
    dom 2
    begin
      skip
    end
  )"))
                                  .Dis(parse(R"(
    program dekkercas0
    vars x y k c0 c1
    regs zero one a b
    dom 2
    begin
      zero := 0;
      one := 1;
      x := one;
      a := y;
      cas(k, zero, one);
      c0 := one;
      b := c1;
      choice {
        assume (b == 1);
        assert false
      } or {
        skip
      }
    end
  )"))
                                  .Build();
  EXPECT_TRUE(sys.ok()) << (sys.ok() ? "" : sys.error());
  return std::move(sys).value();
}

Verdict VerifyDatalog(const ParamSystem& sys,
                      std::optional<std::pair<VarId, Value>> goal,
                      std::size_t max_guesses) {
  VerifierOptions o;
  o.backend = Backend::kDatalog;
  o.max_guesses = max_guesses;
  return SafetyVerifier(sys).Run(goal, o);
}

// A cap equal to the number of guesses cuts nothing: the scan is
// exhaustive and the answer SAFE; one less is UNKNOWN.
TEST(GuessScanTest, ScanEndingExactlyAtTheCapIsComplete) {
  const ParamSystem dekker = Dekker();
  const BenchmarkCase dekker_cas = DekkerCas();
  for (const auto& [name, sys] :
       {std::pair<const char*, const ParamSystem*>{"dekker", &dekker},
        {"dekker-cas", &dekker_cas.system}}) {
    const Verdict full = VerifyDatalog(*sys, std::nullopt, 200'000);
    ASSERT_TRUE(full.safe()) << name;
    const std::size_t total =
        full.telemetry.counter(obs::metric::kGuesses);
    ASSERT_GT(total, 1u) << name;
    const Verdict cut = VerifyDatalog(*sys, std::nullopt, total - 1);
    EXPECT_EQ(cut.result, Verdict::Result::kUnknown) << name;
    const Verdict at = VerifyDatalog(*sys, std::nullopt, total);
    EXPECT_TRUE(at.safe()) << name;
    EXPECT_EQ(at.telemetry.counter(obs::metric::kGuesses), total) << name;
  }
}

// Two identical runs export identical counters (the phase timings are
// gauges), and none of them is a parallel.* key.
TEST(GuessScanTest, SerialTelemetryIsDeterministic) {
  const ParamSystem dekker = Dekker();
  const BenchmarkCase dekker_cas = DekkerCas();
  const ParamSystem generated = RandGuessySystem(272);
  const std::optional<std::pair<VarId, Value>> mg =
      GuessHeavyGoal(generated, 272);
  const struct {
    const char* name;
    const ParamSystem* sys;
    std::optional<std::pair<VarId, Value>> goal;
  } cases[] = {{"dekker", &dekker, std::nullopt},
               {"dekker-cas", &dekker_cas.system, std::nullopt},
               {"guess-heavy seed 272", &generated, mg}};
  for (const auto& c : cases) {
    const Verdict a = VerifyDatalog(*c.sys, c.goal, 200'000);
    const Verdict b = VerifyDatalog(*c.sys, c.goal, 200'000);
    std::size_t counters = 0;
    for (const obs::Telemetry::Entry& e : a.telemetry.entries()) {
      if (e.is_gauge) continue;
      ++counters;
      EXPECT_NE(e.name.rfind("parallel.", 0), 0u) << c.name << " " << e.name;
      ASSERT_TRUE(b.telemetry.Has(e.name)) << c.name << " " << e.name;
      EXPECT_EQ(b.telemetry.counter(e.name), e.counter)
          << c.name << " " << e.name;
    }
    EXPECT_GT(counters, 10u) << c.name;
    EXPECT_EQ(a.telemetry.entries().size(), b.telemetry.entries().size())
        << c.name;
  }
}

}  // namespace
}  // namespace rapar
