#include "core/result_json.h"

#include "common/json.h"
#include "tmai/certcheck.h"

namespace rapar {

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kSimplifiedExplorer:
      return "simplified";
    case Backend::kDatalog:
      return "datalog";
    case Backend::kConcrete:
      return "concrete";
    case Backend::kTmai:
      return "tmai";
    case Backend::kPortfolio:
      return "portfolio";
  }
  return "unknown";
}

std::optional<Backend> ParseBackend(std::string_view name) {
  for (Backend b : {Backend::kSimplifiedExplorer, Backend::kDatalog,
                    Backend::kConcrete, Backend::kTmai, Backend::kPortfolio}) {
    if (name == BackendName(b)) return b;
  }
  return std::nullopt;
}

const char* VerdictName(Verdict::Result r) {
  switch (r) {
    case Verdict::Result::kSafe:
      return "safe";
    case Verdict::Result::kUnsafe:
      return "unsafe";
    case Verdict::Result::kUnknown:
      return "unknown";
  }
  return "unknown";
}

int VerdictExitCode(const Verdict& v) {
  return v.unsafe() ? 1 : (v.safe() ? 0 : 2);
}

std::string VerdictToJson(const Verdict& v, const VerifierOptions& options,
                          std::string_view command,
                          std::string_view system_signature, bool pretty,
                          const EnvelopeExtras* extras) {
  JsonWriter w(pretty);
  w.BeginObject();
  w.Key("schema_version").Int(kResultSchemaVersion);
  w.Key("tool").String("rapar");
  w.Key("command").String(command);
  if (extras != nullptr && !extras->id_json.empty()) {
    w.Key("id").Raw(extras->id_json);
  }
  if (extras != nullptr && !extras->fingerprint.empty()) {
    w.Key("fingerprint").String(extras->fingerprint);
  }
  if (extras != nullptr && !extras->cache.empty()) {
    w.Key("cache").String(extras->cache);
  }
  if (!system_signature.empty()) {
    w.Key("system").String(system_signature);
  }
  w.Key("verdict").String(VerdictName(v.result));
  w.Key("exit_code").Int(VerdictExitCode(v));
  // The backend that actually produced the verdict — for the portfolio
  // the cascade stage that decided ("portfolio:tmai" or
  // "portfolio:datalog"), distinct from the requested options.backend.
  w.Key("backend").String(v.backend.empty() ? BackendName(options.backend)
                                            : v.backend);
  w.Key("witness");
  if (v.witness.empty()) {
    w.Null();
  } else {
    w.String(v.witness);
  }
  w.Key("env_thread_bound");
  if (v.env_thread_bound.has_value()) {
    w.Int(*v.env_thread_bound);
  } else {
    w.Null();
  }
  w.Key("stopped_phase");
  if (v.stopped_phase.empty()) {
    w.Null();
  } else {
    w.String(v.stopped_phase);
  }
  if (!v.width_report.empty()) {
    w.Key("width_report").String(v.width_report);
  }
  // Invariant certificate justifying a TMAI kSafe verdict. Like
  // width_report the key is conditional: certificate-free envelopes keep
  // the key set they had before certificates existed.
  if (v.certificate != nullptr) {
    w.Key("certificate");
    tmai::WriteCertificateJson(*v.certificate, &w);
  }
  // Checkpoint/resume section. Activity-gated like width_report: a run
  // that neither resumes nor writes checkpoints emits no key, so plain
  // envelopes (and the goldens over them) keep their key set.
  if (v.telemetry.Has(obs::metric::kCheckpointResumeOffset) ||
      v.telemetry.Has(obs::metric::kCheckpointWrites)) {
    w.Key("checkpoint").BeginObject();
    w.Key("resume_offset")
        .UInt(v.telemetry.counter(obs::metric::kCheckpointResumeOffset));
    w.Key("writes").UInt(v.telemetry.counter(obs::metric::kCheckpointWrites));
    w.EndObject();
  }
  w.Key("options").BeginObject();
  w.Key("backend").String(BackendName(options.backend));
  w.Key("enable_prepass").Bool(options.enable_prepass);
  w.Key("concrete").BeginObject();
  w.Key("env_threads").Int(options.concrete.env_threads);
  w.EndObject();
  w.Key("max_states").UInt(options.max_states);
  w.Key("max_depth").Int(options.max_depth);
  w.Key("time_budget_ms").Int(options.time_budget_ms);
  w.Key("max_guesses").UInt(options.max_guesses);
  w.EndObject();
  w.Key("telemetry");
  v.telemetry.WriteJson(w);
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string ErrorToJson(std::string_view command, std::string_view message,
                        bool pretty, std::string_view id_json) {
  JsonWriter w(pretty);
  w.BeginObject();
  w.Key("schema_version").Int(kResultSchemaVersion);
  w.Key("tool").String("rapar");
  w.Key("command").String(command);
  if (!id_json.empty()) w.Key("id").Raw(id_json);
  w.Key("error").String(message);
  w.Key("exit_code").Int(3);
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string DiagnosticsToJson(
    std::string_view command,
    const std::vector<std::pair<std::string, Diagnostic>>& diagnostics) {
  std::size_t errors = 0, warnings = 0, notes = 0;
  for (const auto& [file, d] : diagnostics) {
    switch (d.severity) {
      case Severity::kError:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kNote:
        ++notes;
        break;
    }
  }
  JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.Key("schema_version").Int(kResultSchemaVersion);
  w.Key("tool").String("rapar");
  w.Key("command").String(command);
  w.Key("diagnostics").BeginArray();
  for (const auto& [file, d] : diagnostics) {
    w.BeginObject();
    w.Key("file").String(file);
    w.Key("line").Int(d.loc.line);
    w.Key("col").Int(d.loc.col);
    w.Key("code").String(d.code);
    w.Key("severity").String(SeverityName(d.severity));
    w.Key("message").String(d.message);
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  w.Key("errors").UInt(errors);
  w.Key("warnings").UInt(warnings);
  w.Key("notes").UInt(notes);
  w.EndObject();
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

}  // namespace rapar
