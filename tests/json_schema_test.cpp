// Golden tests for the stable machine-readable envelopes
// (core/result_json.h). The schema is a compatibility contract: fields
// may be added under kResultSchemaVersion, but every key, type and
// value range pinned here must survive until the version is bumped.
// The emitters here are the exact functions rapar_cli renders through,
// so the CLI output cannot drift from what these tests accept.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/diagnostics.h"
#include "common/json.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/verifier.h"
#include "generated_systems.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"
#include "tmai/tmai_diagnostics.h"

namespace rapar {
namespace {

// Every key the verdict envelope guarantees, with its kind check.
void CheckVerdictEnvelope(const JsonValue& doc, const char* label) {
  const JsonValue* schema = doc.Find("schema_version");
  ASSERT_NE(schema, nullptr) << label;
  EXPECT_TRUE(schema->number_is_int) << label;
  EXPECT_EQ(schema->integer, kResultSchemaVersion) << label;
  EXPECT_EQ(schema->integer, 3) << label;

  ASSERT_NE(doc.Find("tool"), nullptr) << label;
  EXPECT_EQ(doc.Find("tool")->string, "rapar") << label;
  ASSERT_NE(doc.Find("command"), nullptr) << label;

  const JsonValue* verdict = doc.Find("verdict");
  ASSERT_NE(verdict, nullptr) << label;
  const std::set<std::string> verdicts = {"safe", "unsafe", "unknown"};
  EXPECT_TRUE(verdicts.count(verdict->string)) << label << ": "
                                               << verdict->string;

  const JsonValue* exit_code = doc.Find("exit_code");
  ASSERT_NE(exit_code, nullptr) << label;
  EXPECT_TRUE(exit_code->number_is_int) << label;
  EXPECT_GE(exit_code->integer, 0) << label;
  EXPECT_LE(exit_code->integer, 2) << label;

  // Nullable fields must be present even when null.
  const JsonValue* witness = doc.Find("witness");
  ASSERT_NE(witness, nullptr) << label;
  EXPECT_TRUE(witness->is_null() || witness->is_string()) << label;
  const JsonValue* bound = doc.Find("env_thread_bound");
  ASSERT_NE(bound, nullptr) << label;
  EXPECT_TRUE(bound->is_null() || bound->is_number()) << label;
  const JsonValue* stopped = doc.Find("stopped_phase");
  ASSERT_NE(stopped, nullptr) << label;
  EXPECT_TRUE(stopped->is_null() || stopped->is_string()) << label;

  // The backend that actually produced the verdict: one of the plain
  // backend names, or "portfolio:<stage>" for the cascade stage that
  // decided.
  const std::set<std::string> backends = {"simplified", "datalog",
                                          "concrete", "tmai", "portfolio"};
  const JsonValue* produced = doc.Find("backend");
  ASSERT_NE(produced, nullptr) << label;
  ASSERT_TRUE(produced->is_string()) << label;
  {
    std::string base = produced->string;
    const std::size_t colon = base.find(':');
    if (colon != std::string::npos) {
      EXPECT_EQ(base.substr(0, colon), "portfolio") << label;
      base = base.substr(colon + 1);
    }
    EXPECT_TRUE(backends.count(base)) << label << ": " << produced->string;
  }

  const JsonValue* options = doc.Find("options");
  ASSERT_NE(options, nullptr) << label;
  ASSERT_TRUE(options->is_object()) << label;
  ASSERT_NE(options->Find("backend"), nullptr) << label;
  EXPECT_TRUE(backends.count(options->Find("backend")->string)) << label;
  ASSERT_NE(options->Find("enable_prepass"), nullptr) << label;
  // Version 3: no Datalog option is echoed; the last one, the switch to
  // the backend's unoptimized mode, went with that mode.
  EXPECT_EQ(options->Find("datalog"), nullptr) << label;
  const JsonValue* concrete = options->Find("concrete");
  ASSERT_NE(concrete, nullptr) << label;
  EXPECT_NE(concrete->Find("env_threads"), nullptr) << label;
  EXPECT_NE(options->Find("max_states"), nullptr) << label;
  EXPECT_NE(options->Find("max_depth"), nullptr) << label;
  EXPECT_NE(options->Find("time_budget_ms"), nullptr) << label;
  EXPECT_NE(options->Find("max_guesses"), nullptr) << label;

  const JsonValue* telemetry = doc.Find("telemetry");
  ASSERT_NE(telemetry, nullptr) << label;
  EXPECT_TRUE(telemetry->is_object()) << label;
}

TEST(JsonSchemaTest, VerdictEnvelopeUnsafeDatalog) {
  BenchmarkCase bench = ProducerConsumer(4);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  const Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_TRUE(v.unsafe());

  const std::string json =
      VerdictToJson(v, opts, "verify", bench.system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "unsafe/datalog");
  EXPECT_EQ(doc.value().Find("verdict")->string, "unsafe");
  EXPECT_EQ(doc.value().Find("exit_code")->integer, 1);
  // Certificate-free envelopes keep the exact pre-certificate key set.
  EXPECT_EQ(doc.value().Find("certificate"), nullptr);
  // Same contract for the activity-gated checkpoint section: a run that
  // neither resumes nor checkpoints has no such key.
  EXPECT_EQ(doc.value().Find("checkpoint"), nullptr);
  EXPECT_EQ(doc.value().Find("command")->string, "verify");
  EXPECT_EQ(doc.value().Find("system")->string, bench.system.Signature());
  EXPECT_EQ(doc.value().Find("options")->Find("backend")->string, "datalog");
  // The telemetry block carries the stable metric names.
  const JsonValue* t = doc.value().Find("telemetry");
  EXPECT_NE(t->Find("verify.guesses"), nullptr);
  EXPECT_NE(t->Find("datalog.tuples"), nullptr);
  // Scanned guesses split into solved, skipped and shared ones.
  EXPECT_NE(t->Find("datalog.queries"), nullptr);
  EXPECT_NE(t->Find("datalog.solves_skipped"), nullptr);
  EXPECT_NE(t->Find("datalog.solves_shared"), nullptr);
  EXPECT_NE(t->Find("engine.rule_firings"), nullptr);
  EXPECT_NE(t->Find("phase.total_ms"), nullptr);
  // The guess loop's per-layer split.
  for (const char* name : {"phase.makep_ms", "phase.dlopt_ms",
                           "phase.eval_ms"}) {
    const JsonValue* ms = t->Find(name);
    ASSERT_NE(ms, nullptr) << name;
    EXPECT_TRUE(ms->is_number()) << name;
    EXPECT_GE(ms->number, 0.0) << name;
  }
}

TEST(JsonSchemaTest, VerdictEnvelopeSafeSimplified) {
  BenchmarkCase bench = ProducerConsumerSafe(4);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  const Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_TRUE(v.safe());

  const std::string json =
      VerdictToJson(v, opts, "verify", bench.system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "safe/simplified");
  EXPECT_EQ(doc.value().Find("verdict")->string, "safe");
  EXPECT_EQ(doc.value().Find("exit_code")->integer, 0);
  EXPECT_TRUE(doc.value().Find("witness")->is_null());
  EXPECT_TRUE(doc.value().Find("stopped_phase")->is_null());
  // Safe, but not via TMAI: no certificate key, same as before PR 7.
  EXPECT_EQ(doc.value().Find("certificate"), nullptr);
  EXPECT_EQ(doc.value().Find("checkpoint"), nullptr);
  const JsonValue* t = doc.value().Find("telemetry");
  EXPECT_NE(t->Find("verify.states"), nullptr);
}

// Resumed-run golden: when a run resumes from a checkpoint position and
// checkpoints its own, the envelope gains the "checkpoint" section — still
// under kResultSchemaVersion. No run has a "shard" section: multi-process
// sharding is gone (DESIGN.md §14).
TEST(JsonSchemaTest, VerdictEnvelopeShardAndCheckpointSections) {
  BenchmarkCase bench = DekkerFences();
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  opts.datalog.start_index = 1;
  opts.datalog.checkpoint_every = 1;
  opts.datalog.checkpoint_sink = [](const CursorCheckpoint&) {};
  const Verdict v = verifier.Run(std::nullopt, opts);

  const std::string json =
      VerdictToJson(v, opts, "verify", bench.system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "resumed/datalog");
  EXPECT_EQ(doc.value().Find("shard"), nullptr);

  const JsonValue* checkpoint = doc.value().Find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  ASSERT_TRUE(checkpoint->is_object());
  ASSERT_NE(checkpoint->Find("writes"), nullptr);
  EXPECT_GT(checkpoint->Find("writes")->uinteger, 0u);
  ASSERT_NE(checkpoint->Find("resume_offset"), nullptr);
  EXPECT_EQ(checkpoint->Find("resume_offset")->uinteger, 1u);
}

// A Datalog scan longer than the 1 ms budget (generated_systems.h); the
// catalog queries finish inside it.
TEST(JsonSchemaTest, VerdictEnvelopeDeadlineUnknown) {
  const ParamSystem system = ManyGuessSafeSystem();
  SafetyVerifier verifier(system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  opts.time_budget_ms = 1;
  const Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_EQ(v.result, Verdict::Result::kUnknown);

  const std::string json =
      VerdictToJson(v, opts, "verify", system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "unknown/deadline");
  EXPECT_EQ(doc.value().Find("verdict")->string, "unknown");
  EXPECT_EQ(doc.value().Find("exit_code")->integer, 2);
  ASSERT_TRUE(doc.value().Find("stopped_phase")->is_string());
  EXPECT_EQ(doc.value().Find("stopped_phase")->string, "solve");
}

TEST(JsonSchemaTest, VerdictEnvelopeEchoesProducingBackend) {
  BenchmarkCase bench = Rcu();
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kTmai;
  const Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_TRUE(v.safe());

  const std::string json =
      VerdictToJson(v, opts, "verify", bench.system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "safe/tmai");
  EXPECT_EQ(doc.value().Find("backend")->string, "tmai");
  EXPECT_EQ(doc.value().Find("options")->Find("backend")->string, "tmai");
  const JsonValue* t = doc.value().Find("telemetry");
  EXPECT_NE(t->Find("tmai.iterations"), nullptr);
  EXPECT_NE(t->Find("tmai.converged"), nullptr);
  // Rcu is proved by the small-set stage of kAuto: the certificate names
  // the small-set domain, omits the relational "must" block, and no
  // tmai.relational.* counters appear (the retry never ran).
  const JsonValue* cert = doc.value().Find("certificate");
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->Find("domain")->string, "smallset");
  EXPECT_EQ(cert->Find("must"), nullptr);
  EXPECT_EQ(t->Find("tmai.relational.rounds"), nullptr);
}

// The flagship precision case: a mutual-exclusion protocol only the
// relational domain proves. The envelope must carry a complete,
// re-parseable "certificate" object naming that domain.
TEST(JsonSchemaTest, VerdictEnvelopeCarriesRelationalCertificate) {
  BenchmarkCase bench = PetersonHandover();
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kTmai;  // TMAI always runs the kAuto cascade
  const Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_TRUE(v.safe());
  ASSERT_NE(v.certificate, nullptr);

  const std::string json =
      VerdictToJson(v, opts, "verify", bench.system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "safe/tmai-relational");
  EXPECT_EQ(doc.value().Find("verdict")->string, "safe");

  const JsonValue* cert = doc.value().Find("certificate");
  ASSERT_NE(cert, nullptr);
  ASSERT_TRUE(cert->is_object());
  ASSERT_NE(cert->Find("schema_version"), nullptr);
  EXPECT_EQ(cert->Find("schema_version")->integer,
            tmai::kCertificateSchemaVersion);
  EXPECT_EQ(cert->Find("domain")->string, "relational");
  EXPECT_EQ(cert->Find("check_assert")->boolean, true);
  // Assert-goal certificates omit the MG goal keys.
  EXPECT_EQ(cert->Find("goal_var"), nullptr);
  EXPECT_EQ(cert->Find("goal_val"), nullptr);
  EXPECT_NE(cert->Find("value_set_limit"), nullptr);
  EXPECT_NE(cert->Find("num_vars"), nullptr);
  EXPECT_NE(cert->Find("dom"), nullptr);

  const JsonValue* threads = cert->Find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_TRUE(threads->is_array());
  ASSERT_FALSE(threads->items.empty());
  const JsonValue& th = threads->items[0];
  EXPECT_NE(th.Find("replicated"), nullptr);
  EXPECT_NE(th.Find("num_nodes"), nullptr);
  EXPECT_NE(th.Find("num_edges"), nullptr);
  const JsonValue* inv = th.Find("invariants");
  ASSERT_NE(inv, nullptr);
  ASSERT_TRUE(inv->is_array());

  const JsonValue* tables = cert->Find("tables");
  ASSERT_NE(tables, nullptr);
  EXPECT_NE(tables->Find("store_vals"), nullptr);
  EXPECT_NE(tables->Find("acq"), nullptr);
  EXPECT_NE(tables->Find("present"), nullptr);
  EXPECT_NE(tables->Find("edge_store"), nullptr);
  const JsonValue* must = cert->Find("must");
  ASSERT_NE(must, nullptr);
  EXPECT_NE(must->Find("obs"), nullptr);
  EXPECT_NE(must->Find("cons"), nullptr);

  // The serialized object parses back into an equal certificate.
  Expected<tmai::Certificate> parsed = tmai::ParseCertificateJson(*cert);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().domain, tmai::Domain::kRelational);
  EXPECT_EQ(parsed.value().threads.size(), v.certificate->threads.size());

  // The relational retry counters ride the telemetry block.
  const JsonValue* t = doc.value().Find("telemetry");
  EXPECT_NE(t->Find("tmai.relational.rounds"), nullptr);
  EXPECT_NE(t->Find("tmai.relational.pruned_reads"), nullptr);
}

TEST(JsonSchemaTest, VerdictEnvelopePortfolioNamesTheWinner) {
  BenchmarkCase bench = ProducerConsumer(1);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kPortfolio;
  const Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_TRUE(v.unsafe());

  const std::string json =
      VerdictToJson(v, opts, "verify", bench.system.Signature());
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  CheckVerdictEnvelope(doc.value(), "unsafe/portfolio");
  // TMAI cannot prove an UNSAFE system safe, so Datalog decides.
  EXPECT_EQ(doc.value().Find("backend")->string, "portfolio:datalog");
  EXPECT_EQ(doc.value().Find("options")->Find("backend")->string,
            "portfolio");
  // The TMAI stage's cost is the one portfolio key; the "backend" field
  // already names the stage that decided.
  const JsonValue* t = doc.value().Find("telemetry");
  EXPECT_NE(t->Find("portfolio.tmai_ms"), nullptr);
  for (const char* gone :
       {"portfolio.winner_tmai", "portfolio.winner_simplified",
        "portfolio.winner_datalog", "portfolio.simplified_ms",
        "portfolio.datalog_ms", "portfolio.cancelled"}) {
    EXPECT_EQ(t->Find(gone), nullptr) << gone;
  }
}

TEST(JsonSchemaTest, DiagnosticsEnvelope) {
  std::vector<std::pair<std::string, Diagnostic>> diags;
  Diagnostic warn;
  warn.severity = Severity::kWarning;
  warn.code = "RA003";
  warn.message = "dead store";
  warn.loc.line = 7;
  warn.loc.col = 3;
  diags.emplace_back("demo.rap", warn);
  Diagnostic note;
  note.severity = Severity::kNote;
  note.code = "RA026";
  note.message = "stratified program";
  diags.emplace_back("makeP", note);

  const std::string json = DiagnosticsToJson("lint", diags);
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();

  EXPECT_EQ(doc.value().Find("schema_version")->integer,
            kResultSchemaVersion);
  EXPECT_EQ(doc.value().Find("tool")->string, "rapar");
  EXPECT_EQ(doc.value().Find("command")->string, "lint");

  const JsonValue* list = doc.value().Find("diagnostics");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->items.size(), 2u);
  const JsonValue& first = list->items[0];
  EXPECT_EQ(first.Find("file")->string, "demo.rap");
  EXPECT_EQ(first.Find("line")->integer, 7);
  EXPECT_EQ(first.Find("col")->integer, 3);
  EXPECT_EQ(first.Find("code")->string, "RA003");
  EXPECT_EQ(first.Find("severity")->string, "warning");
  EXPECT_EQ(first.Find("message")->string, "dead store");
  EXPECT_EQ(list->items[1].Find("severity")->string, "note");

  const JsonValue* summary = doc.value().Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("errors")->integer, 0);
  EXPECT_EQ(summary->Find("warnings")->integer, 1);
  EXPECT_EQ(summary->Find("notes")->integer, 1);
}

// The relational precision notes (RA034/RA035) ride the same lint
// envelope as every other diagnostic: stable file/line/col/code/
// severity/message keys, severity "note".
TEST(JsonSchemaTest, DiagnosticsEnvelopeRelationalLints) {
  BenchmarkCase bench = PetersonHandover();
  const tmai::TmaiSystem tsys =
      tmai::TmaiSystem::FromSimpl(bench.system.simpl());
  const std::vector<std::vector<Diagnostic>> per_thread =
      tmai::TmaiLint(tsys);
  std::vector<std::pair<std::string, Diagnostic>> diags;
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    for (const Diagnostic& d : per_thread[t]) {
      diags.emplace_back("thread" + std::to_string(t), d);
    }
  }

  const std::string json = DiagnosticsToJson("lint", diags);
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();

  const JsonValue* list = doc.value().Find("diagnostics");
  ASSERT_NE(list, nullptr);
  bool saw_ra034 = false, saw_ra035 = false;
  for (const JsonValue& d : list->items) {
    ASSERT_NE(d.Find("file"), nullptr);
    ASSERT_NE(d.Find("line"), nullptr);
    ASSERT_NE(d.Find("col"), nullptr);
    ASSERT_NE(d.Find("code"), nullptr);
    ASSERT_NE(d.Find("severity"), nullptr);
    ASSERT_NE(d.Find("message"), nullptr);
    const std::string& code = d.Find("code")->string;
    if (code == "RA034") {
      saw_ra034 = true;
      EXPECT_EQ(d.Find("severity")->string, "note");
    }
    if (code == "RA035") {
      saw_ra035 = true;
      EXPECT_EQ(d.Find("severity")->string, "note");
    }
  }
  EXPECT_TRUE(saw_ra034) << json;
  EXPECT_TRUE(saw_ra035) << json;
  // Everything TMAI emits is a note, so the summary has no errors.
  EXPECT_EQ(doc.value().Find("summary")->Find("errors")->integer, 0);
}

TEST(JsonSchemaTest, DiagnosticsEnvelopeEmpty) {
  const std::string json = DiagnosticsToJson("dlanalyze", {});
  Expected<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_TRUE(doc.value().Find("diagnostics")->items.empty());
  EXPECT_EQ(doc.value().Find("summary")->Find("errors")->integer, 0);
}

TEST(JsonSchemaTest, VerdictNamesAndExitCodes) {
  EXPECT_STREQ(VerdictName(Verdict::Result::kSafe), "safe");
  EXPECT_STREQ(VerdictName(Verdict::Result::kUnsafe), "unsafe");
  EXPECT_STREQ(VerdictName(Verdict::Result::kUnknown), "unknown");
  Verdict v;
  v.result = Verdict::Result::kSafe;
  EXPECT_EQ(VerdictExitCode(v), 0);
  v.result = Verdict::Result::kUnsafe;
  EXPECT_EQ(VerdictExitCode(v), 1);
  v.result = Verdict::Result::kUnknown;
  EXPECT_EQ(VerdictExitCode(v), 2);
}

}  // namespace
}  // namespace rapar
