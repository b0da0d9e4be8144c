// Stable machine-readable result envelopes (--format=json).
//
// Three shapes, shared by rapar_cli, the serve daemon and the
// golden-schema tests so the emitters cannot drift from what the tests
// pin down:
//
//   VerdictToJson      — verify/mg: schema_version, tool, command, system
//                        signature, verdict, exit_code, the backend that
//                        produced the verdict, witness, env_thread_bound,
//                        stopped_phase, the effective options, and the
//                        full telemetry registry.
//   DiagnosticsToJson  — lint/dlanalyze: schema_version, tool, command,
//                        diagnostics array (file, line, col, code,
//                        severity, message) and a severity summary.
//   ErrorToJson        — a verify/mg usage or input error, and every
//                        serve error: schema_version, tool, command, the
//                        request id (serve), error and exit_code 3.
//
// Versioning contract: fields may be ADDED under the same
// schema_version; renaming or removing one (or changing a type) bumps
// kResultSchemaVersion. Consumers should ignore unknown fields.
// Version 2 removed options.datalog.threads and options.datalog.batch_size
// with the parallel guess driver (DESIGN.md §16); version 3 removed the
// options.datalog object together with the Datalog backend's unoptimized
// mode, the switch it still echoed (DESIGN.md §18).
#ifndef RAPAR_CORE_RESULT_JSON_H_
#define RAPAR_CORE_RESULT_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "core/verifier.h"

namespace rapar {

inline constexpr int kResultSchemaVersion = 3;

// "safe", "unsafe" or "unknown".
const char* VerdictName(Verdict::Result r);
// "simplified", "datalog", "concrete", "tmai" or "portfolio": the names
// the CLI's --backend and serve's "backend" option take, and the
// envelope's options.backend.
const char* BackendName(Backend b);
// The backend BackendName gives `name`; nullopt for any other name.
std::optional<Backend> ParseBackend(std::string_view name);
// The CLI exit code the verdict maps to (0 / 1 / 2).
int VerdictExitCode(const Verdict& v);

// Serve-mode additions to the verify/mg envelope (core/serve.h). Every
// field is optional; with none set the envelope is exactly what one-shot
// verify emits, which is what makes the cache-replay differential a
// byte-comparison.
struct EnvelopeExtras {
  // Client-chosen request id, echoed back verbatim as pre-rendered JSON
  // (any JSON value). Empty = key omitted.
  std::string id_json;
  // Content-address of the request (hex digest of the canonical
  // normalization). Empty = key omitted.
  std::string fingerprint;
  // "hit" (envelope replayed from the verdict cache) or "miss" (the
  // pipeline ran). Empty = key omitted.
  std::string cache;
};

// Renders the verify/mg envelope. `command` is "verify" or "mg";
// `system_signature` is ParamSystem::Signature() (empty = omitted).
// `pretty` selects indented output (the CLI one-shot default) or the
// single-line form serve uses for its newline-delimited wire protocol.
std::string VerdictToJson(const Verdict& v, const VerifierOptions& options,
                          std::string_view command,
                          std::string_view system_signature,
                          bool pretty = true,
                          const EnvelopeExtras* extras = nullptr);

// Renders the error envelope. `command` is the failing command ("verify",
// "mg"; serve answers "error"); `id_json` is EnvelopeExtras::id_json
// (empty = omitted); `pretty` as for VerdictToJson.
std::string ErrorToJson(std::string_view command, std::string_view message,
                        bool pretty = true, std::string_view id_json = {});

// Renders the diagnostics envelope for lint/dlanalyze. Each entry pairs
// the file the diagnostic is about (or a pseudo-file like "makeP") with
// the diagnostic itself.
std::string DiagnosticsToJson(
    std::string_view command,
    const std::vector<std::pair<std::string, Diagnostic>>& diagnostics);

}  // namespace rapar

#endif  // RAPAR_CORE_RESULT_JSON_H_
