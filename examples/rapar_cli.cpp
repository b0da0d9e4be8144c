// rapar_cli — command-line front end for the verifier.
//
//   rapar_cli verify --env FILE [--dis FILE]... [options]
//   rapar_cli mg     --env FILE [--dis FILE]... --var NAME --val N [options]
//   rapar_cli dump-datalog --env FILE [--dis FILE]... [--var NAME --val N]
//   rapar_cli dlanalyze --env FILE [--dis FILE]... [--guess N] [--dot]
//   rapar_cli classify FILE...
//   rapar_cli lint [--env FILE] [--dis FILE]... [FILE...]
//   rapar_cli certcheck --env FILE [--dis FILE]... --cert FILE
//   rapar_cli serve [--cache-entries N] [--cache-bytes N] [--pretty]
//
// Every subcommand answers `--help` with its own flag list. Flags are
// declared once in the kFlags table below — name, arity, applicable
// subcommands, help text — so parsing, validation and help stay in sync.
// An unknown flag, one that does not apply to the subcommand, an integer
// flag whose value is not an integer of its field's type, a negative
// count, size or budget, or an --unroll bound above 1000000 is a usage
// error: exit 3.
//
// lint runs the analysis passes (reachability, liveness, constant
// propagation, footprints) and reports diagnostics in compiler format.
// certcheck re-validates a TMAI invariant certificate (the "certificate"
// object a safe `verify --backend=tmai --format=json` run embeds in its
// envelope — see tmai/certcheck.h) against the system, without re-running
// the fixpoint. --cert accepts either the bare certificate object or a
// whole verdict envelope. Exit 0 = valid, 1 = invalid, 3 = usage error.
// dlanalyze runs makeP for one guess (--guess N, default 0) and reports
// the static analysis of the emitted Datalog program; --dot prints the
// predicate dependency graph in Graphviz format instead.
// serve runs the long-lived verification daemon (core/serve.h): one JSON
// request per stdin line, one result envelope per stdout line (or a
// {"requests":[...]} batch per line, answered as {"responses":[...]}),
// each request answered in turn on the main thread, with a
// content-addressed verdict cache. EOF on stdin shuts it down (exit 0).
// verify/mg with --backend=datalog additionally support checkpoint/resume
// of the guess scan (--checkpoint=FILE, --resume=FILE, --scan-limit=N):
// a checkpoint records the first unscanned guess and a digest of the
// query (the printed post-unroll programs and the goal), and --resume
// rejects a checkpoint taken for another query — DESIGN.md §8.
//
// Machine-readable output (--format=json) uses the stable envelopes of
// core/result_json.h: verify/mg emit the verdict envelope (schema_version,
// verdict, exit_code, witness, options echo, telemetry), lint/dlanalyze
// the diagnostics envelope. --trace=FILE writes a Chrome trace-event JSON
// of the run (open in Perfetto or chrome://tracing); --metrics prints the
// telemetry registry after the verdict.
//
// Exit code: 0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN, 3 = usage/input error.
// For lint/dlanalyze: 0 = clean (notes allowed), 1 = warnings/errors.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <optional>
#include <utility>

#include "analysis/diagnostics.h"
#include "analysis/footprint.h"
#include "common/hash.h"
#include "common/json.h"
#include "core/param_system.h"
#include "core/result_json.h"
#include "core/serve.h"
#include "core/verifier.h"
#include "dlopt/dl_diagnostics.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "lang/classify.h"
#include "lang/parser.h"
#include "lang/transform.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"
#include "tmai/tmai_diagnostics.h"

namespace {

struct Options {
  std::string command;
  std::string env_file;
  std::vector<std::string> dis_files;
  std::vector<std::string> files;  // classify / bare lint inputs
  // verify/mg: the library's defaults with the flags below applied, and
  // the CLI's own 30 s budget, which ParseArgs sets.
  rapar::VerifierOptions vopts;
  std::string backend = "simplified";
  std::string tmai_domain = "auto";
  // verify/mg: the concrete backend's env threads.
  std::optional<int> threads;
  std::string cert_file;
  int unroll = 0;
  bool witness = false;
  std::string goal_var;
  int goal_val = -1;
  std::string format = "text";
  int guess_index = 0;
  bool dot = false;
  std::string trace_file;
  bool metrics = false;
  bool help = false;
  rapar::serve::ServeOptions serve;
  // Checkpoint/resume (datalog backend only).
  std::string checkpoint_file;
  std::string resume_file;
  long long checkpoint_every = 0;  // 0 = default (64) when --checkpoint set
};

// --- declarative flag table -------------------------------------------------

struct FlagSpec {
  const char* name;        // "--env"
  bool takes_value;
  const char* value_name;  // shown in help; null for boolean flags
  // Space-separated subcommands the flag applies to.
  const char* commands;
  const char* help;
  void (*apply)(Options&, const char*);
};

// Thrown by ParseInt and ParseCount; ParseArgs reports it as a usage
// error naming what the flag expects.
struct BadInteger {
  std::string expected;
};

// Parses all of `v` into *out. Unlike std::atoi, which reads "one" as 0
// and "30s" as 30 and is undefined out of range, this rejects trailing
// characters and values outside T.
template <typename T>
void ParseInt(const char* v, T* out) {
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, *out);
  if (ec != std::errc() || ptr != end) throw BadInteger{"an integer"};
}

// ParseInt for counts, sizes, bounds and budgets: a negative value is a
// usage error, never a silent default or "unlimited"; so is a value above
// `max`.
template <typename T>
void ParseCount(const char* v, T* out,
                long long max = std::numeric_limits<long long>::max()) {
  long long n = 0;
  ParseInt(v, &n);
  if (n < 0) throw BadInteger{"a non-negative integer"};
  if (n > max) {
    throw BadInteger{"an integer in [0, " + std::to_string(max) + "]"};
  }
  if (!std::in_range<T>(n)) throw BadInteger{"an integer"};
  *out = static_cast<T>(n);
}

constexpr char kAllCommands[] =
    "verify mg dump-datalog dlanalyze classify lint certcheck serve";

const FlagSpec kFlags[] = {
    {"--env", true, "FILE", "verify mg dump-datalog dlanalyze lint certcheck",
     "env thread program",
     [](Options& o, const char* v) { o.env_file = v; }},
    {"--dis", true, "FILE", "verify mg dump-datalog dlanalyze lint certcheck",
     "add a dis thread program (repeatable)",
     [](Options& o, const char* v) { o.dis_files.push_back(v); }},
    {"--backend", true, "B", "verify mg",
     "simplified|datalog|concrete|tmai|portfolio (default simplified)",
     [](Options& o, const char* v) { o.backend = v; }},
    {"--threads", true, "N", "verify mg",
     "with --backend=concrete: env threads in the instance (1-4096, "
     "default 2)",
     [](Options& o, const char* v) { ParseInt(v, &o.threads.emplace()); }},
    {"--unroll", true, "K", "verify mg dump-datalog dlanalyze certcheck",
     "unroll bound for dis loops (0-1000000, default 0 = reject loops)",
     [](Options& o, const char* v) {
       ParseCount(v, &o.unroll, rapar::ParamSystem::Builder::kMaxUnroll);
     }},
    {"--tmai-domain", true, "D", "verify mg",
     "TMAI abstract domain: smallset|relational|auto (default auto = "
     "small-set first, relational retry on unknown)",
     [](Options& o, const char* v) { o.tmai_domain = v; }},
    {"--tmai-max-iterations", true, "N", "verify mg",
     "TMAI interference fixpoint rounds before giving up (default 64)",
     [](Options& o, const char* v) {
       ParseCount(v, &o.vopts.tmai.max_iterations);
     }},
    {"--tmai-widening-delay", true, "N", "verify mg",
     "TMAI joins at one CFA node before disjuncts widen (default 8)",
     [](Options& o, const char* v) {
       ParseCount(v, &o.vopts.tmai.widening_delay);
     }},
    {"--tmai-value-set-limit", true, "N", "verify mg",
     "TMAI explicit value-set size beyond which a set becomes top "
     "(default 16)",
     [](Options& o, const char* v) {
       ParseCount(v, &o.vopts.tmai.value_set_limit);
     }},
    {"--cert", true, "FILE", "certcheck",
     "certificate JSON to validate (bare object, or a verify/mg "
     "--format=json envelope containing one)",
     [](Options& o, const char* v) { o.cert_file = v; }},
    {"--budget-ms", true, "N", "verify mg",
     "wall-clock budget in ms, 0 = unlimited (default 30000)",
     [](Options& o, const char* v) { ParseCount(v, &o.vopts.time_budget_ms); }},
    {"--witness", false, nullptr, "verify mg",
     "print the witness run on UNSAFE",
     [](Options& o, const char*) { o.witness = true; }},
    {"--var", true, "NAME", "mg dump-datalog dlanalyze",
     "goal message variable",
     [](Options& o, const char* v) { o.goal_var = v; }},
    {"--val", true, "N", "mg dump-datalog dlanalyze", "goal message value",
     [](Options& o, const char* v) { ParseInt(v, &o.goal_val); }},
    {"--format", true, "F", "verify mg lint dlanalyze certcheck",
     "text|json (default text); json uses the stable schema of "
     "core/result_json.h",
     [](Options& o, const char* v) { o.format = v; }},
    {"--guess", true, "N", "dlanalyze", "which makeP guess to analyze",
     [](Options& o, const char* v) { ParseInt(v, &o.guess_index); }},
    {"--dot", false, nullptr, "dlanalyze",
     "emit the dependency graph as Graphviz",
     [](Options& o, const char*) { o.dot = true; }},
    {"--trace", true, "FILE", "verify mg",
     "write a Chrome trace-event JSON of the run (Perfetto-loadable)",
     [](Options& o, const char* v) { o.trace_file = v; }},
    {"--cache-entries", true, "N", "serve",
     "verdict-cache capacity in entries, 0 disables the cache "
     "(default 1024)",
     [](Options& o, const char* v) {
       ParseCount(v, &o.serve.cache_entries);
     }},
    {"--cache-bytes", true, "N", "serve",
     "verdict-cache resident-bytes ceiling (default 67108864)",
     [](Options& o, const char* v) { ParseCount(v, &o.serve.cache_bytes); }},
    {"--pretty", false, nullptr, "serve",
     "indent response envelopes (default: one response per line)",
     [](Options& o, const char*) { o.serve.pretty = true; }},
    {"--checkpoint", true, "FILE", "verify mg",
     "datalog backend: write scan checkpoints to FILE (atomic "
     "tmp+rename)",
     [](Options& o, const char* v) { o.checkpoint_file = v; }},
    {"--resume", true, "FILE", "verify mg",
     "resume the guess scan from a --checkpoint file taken for the same "
     "programs and goal",
     [](Options& o, const char* v) { o.resume_file = v; }},
    {"--checkpoint-every", true, "N", "verify mg",
     "scanned guesses between periodic checkpoints (default 64 when "
     "--checkpoint is given)",
     [](Options& o, const char* v) { ParseCount(v, &o.checkpoint_every); }},
    {"--scan-limit", true, "N", "verify mg",
     "stop after scanning N guesses this run and checkpoint "
     "(deterministic truncation for kill-and-resume; 0 = unlimited)",
     [](Options& o, const char* v) {
       ParseCount(v, &o.vopts.datalog.scan_limit);
     }},
    {"--metrics", false, nullptr, "verify mg",
     "print the telemetry registry after the verdict",
     [](Options& o, const char*) { o.metrics = true; }},
    {"--help", false, nullptr, kAllCommands, "show this help",
     [](Options& o, const char*) { o.help = true; }},
};

// Word-exact membership of `cmd` in the space-separated `list`.
bool CommandIn(const std::string& cmd, const char* list) {
  const char* p = list;
  while (*p != '\0') {
    const char* end = std::strchr(p, ' ');
    const std::size_t len =
        end != nullptr ? static_cast<std::size_t>(end - p) : std::strlen(p);
    if (cmd.size() == len && std::strncmp(cmd.c_str(), p, len) == 0) {
      return true;
    }
    if (end == nullptr) break;
    p = end + 1;
  }
  return false;
}

const FlagSpec* FindFlag(const std::string& name) {
  for (const FlagSpec& f : kFlags) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

int GlobalUsage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rapar_cli verify --env FILE [--dis FILE]... [options]\n"
      "  rapar_cli mg --env FILE [--dis FILE]... --var NAME --val N ...\n"
      "  rapar_cli dump-datalog --env FILE [--dis FILE]... [--var NAME "
      "--val N]\n"
      "  rapar_cli dlanalyze --env FILE [--dis FILE]... [--guess N] "
      "[--dot]\n"
      "  rapar_cli classify FILE...\n"
      "  rapar_cli lint [--env FILE] [--dis FILE]... [FILE...]\n"
      "  rapar_cli certcheck --env FILE [--dis FILE]... --cert FILE\n"
      "  rapar_cli serve [--cache-entries N] [--cache-bytes N] "
      "[--pretty]\n"
      "run `rapar_cli <command> --help` for the command's flags\n");
  return 3;
}

// Per-subcommand help, generated from the flag table.
int CommandHelp(const std::string& cmd) {
  std::printf("usage: rapar_cli %s [flags]\nflags:\n", cmd.c_str());
  for (const FlagSpec& f : kFlags) {
    if (!CommandIn(cmd, f.commands)) continue;
    std::string lhs = f.name;
    if (f.takes_value) {
      lhs += ' ';
      lhs += f.value_name;
    }
    std::printf("  %-18s %s\n", lhs.c_str(), f.help);
  }
  return 0;
}

// Parses argv into `opts`. Returns 0 on success, 3 (after printing the
// error) on a usage error.
int ParseArgs(int argc, char** argv, Options* opts) {
  if (argc < 2) return GlobalUsage();
  opts->vopts.time_budget_ms = 30'000;
  opts->command = argv[1];
  if (opts->command == "--help" || opts->command == "-h") {
    GlobalUsage();
    return 3;
  }
  if (!CommandIn(opts->command, kAllCommands)) {
    std::fprintf(stderr, "unknown command: %s\n", opts->command.c_str());
    return GlobalUsage();
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.empty()) continue;
    if (arg[0] != '-') {
      if (opts->command != "classify" && opts->command != "lint") {
        std::fprintf(stderr,
                     "unexpected argument '%s' (command %s takes no "
                     "positional arguments)\n",
                     arg.c_str(), opts->command.c_str());
        return 3;
      }
      opts->files.push_back(arg);
      continue;
    }
    // --flag=value or --flag [value]
    std::string name = arg;
    const char* inline_value = nullptr;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = argv[i] + eq + 1;
    }
    const FlagSpec* spec = FindFlag(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", name.c_str());
      return 3;
    }
    if (!CommandIn(opts->command, spec->commands)) {
      std::fprintf(stderr, "flag %s does not apply to command %s\n",
                   name.c_str(), opts->command.c_str());
      return 3;
    }
    const char* value = nullptr;
    if (spec->takes_value) {
      if (inline_value != nullptr) {
        value = inline_value;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag %s expects a value (%s)\n", name.c_str(),
                     spec->value_name);
        return 3;
      }
    } else if (inline_value != nullptr) {
      std::fprintf(stderr, "flag %s takes no value\n", name.c_str());
      return 3;
    }
    try {
      spec->apply(*opts, value);
    } catch (const BadInteger& e) {
      std::fprintf(stderr, "flag %s expects %s, got '%s'\n", name.c_str(),
                   e.expected.c_str(), value);
      return 3;
    }
  }
  return 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Classify(const Options& opts) {
  if (opts.files.empty()) return GlobalUsage();
  for (const std::string& path : opts.files) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 3;
    }
    rapar::Expected<rapar::Program> p = rapar::ParseProgram(text);
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), p.error().c_str());
      return 3;
    }
    rapar::Classification c = rapar::Classify(p.value());
    std::printf("%s: %s  (vars=%zu regs=%zu dom=%d)\n", path.c_str(),
                c.ToString().c_str(), p.value().vars().size(),
                p.value().regs().size(), p.value().dom());
  }
  return 0;
}

int Lint(const Options& opts) {
  struct Input {
    std::string path;
    rapar::ThreadRole role;
    std::string text;
    rapar::Program program;  // parsed, later rewritten onto shared vars
  };
  std::vector<Input> inputs;
  auto add = [&](const std::string& path, rapar::ThreadRole role) {
    inputs.push_back(Input{path, role, "", rapar::Program()});
  };
  if (!opts.env_file.empty()) add(opts.env_file, rapar::ThreadRole::kEnv);
  for (const std::string& path : opts.dis_files) {
    add(path, rapar::ThreadRole::kDis);
  }
  for (const std::string& path : opts.files) {
    add(path, rapar::ThreadRole::kEnv);
  }
  if (inputs.empty()) return GlobalUsage();

  for (Input& in : inputs) {
    if (!ReadFile(in.path, &in.text)) {
      std::fprintf(stderr, "cannot read %s\n", in.path.c_str());
      return 3;
    }
    rapar::Expected<rapar::Program> p = rapar::ParseProgram(in.text);
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", in.path.c_str(), p.error().c_str());
      return 3;
    }
    in.program = std::move(p).value();
  }

  // Unify variable tables by name so the observed-variable set spans the
  // whole system: a store is dead only if *no* thread loads or CASes the
  // variable (same convention as ParamSystem::Builder, but lint must not
  // reject ill-classed systems — reporting them is its job).
  rapar::VarTable shared;
  std::vector<std::vector<rapar::VarId>> mappings;
  for (const Input& in : inputs) {
    std::vector<rapar::VarId> mapping;
    for (const std::string& name : in.program.vars().names()) {
      mapping.push_back(shared.Add(name));
    }
    mappings.push_back(std::move(mapping));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const rapar::Program& p = inputs[i].program;
    inputs[i].program =
        rapar::Program(p.name(), shared, p.regs(), p.dom(),
                       rapar::RemapVars(p.body(), mappings[i]));
  }
  std::vector<rapar::Cfa> cfas;
  cfas.reserve(inputs.size());
  for (const Input& in : inputs) {
    cfas.push_back(rapar::Cfa::Build(in.program));
  }
  std::vector<const rapar::Cfa*> cfa_ptrs;
  for (const rapar::Cfa& c : cfas) cfa_ptrs.push_back(&c);
  rapar::LintOptions lint;
  lint.observed_vars = rapar::ObservedVars(cfa_ptrs, shared.size());

  // TMAI-backed whole-system notes (RA030–RA033): run the interference
  // fixpoint over all inputs at once and merge each thread's notes into
  // its file's diagnostic stream.
  rapar::tmai::TmaiSystem tmai_sys;
  tmai_sys.num_vars = shared.size();
  tmai_sys.dom = 2;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].program.dom() > tmai_sys.dom) {
      tmai_sys.dom = inputs[i].program.dom();
    }
    tmai_sys.threads.push_back(rapar::tmai::TmaiThread{
        &cfas[i], inputs[i].role == rapar::ThreadRole::kEnv});
  }
  const std::vector<std::vector<rapar::Diagnostic>> tmai_diags =
      rapar::tmai::TmaiLint(tmai_sys);

  std::size_t warnings = 0;
  std::size_t notes = 0;
  std::vector<std::pair<std::string, rapar::Diagnostic>> all;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    lint.role = in.role;
    std::vector<rapar::Diagnostic> diags =
        rapar::LintProgram(in.program, lint);
    diags.insert(diags.end(), tmai_diags[i].begin(), tmai_diags[i].end());
    rapar::SortDiagnostics(diags);
    for (const rapar::Diagnostic& d : diags) {
      if (opts.format == "json") {
        all.emplace_back(in.path, d);
      } else {
        std::printf("%s\n",
                    rapar::RenderDiagnostic(d, in.path, in.text).c_str());
      }
      (d.severity == rapar::Severity::kNote ? notes : warnings) += 1;
    }
  }
  if (opts.format == "json") {
    std::fputs(rapar::DiagnosticsToJson("lint", all).c_str(), stdout);
  } else {
    std::printf("%zu warning(s), %zu note(s)\n", warnings, notes);
  }
  return warnings > 0 ? 1 : 0;
}

rapar::Expected<rapar::ParamSystem> BuildSystem(const Options& opts) {
  std::string env_text;
  if (!ReadFile(opts.env_file, &env_text)) {
    return rapar::Expected<rapar::ParamSystem>::Error(
        "cannot read env file '" + opts.env_file + "'");
  }
  rapar::Expected<rapar::Program> env = rapar::ParseProgram(env_text);
  if (!env.ok()) {
    return rapar::Expected<rapar::ParamSystem>::Error(opts.env_file + ": " +
                                                      env.error());
  }
  rapar::ParamSystem::Builder builder;
  builder.Env(std::move(env).value()).UnrollDis(opts.unroll);
  for (const std::string& path : opts.dis_files) {
    std::string text;
    if (!ReadFile(path, &text)) {
      return rapar::Expected<rapar::ParamSystem>::Error(
          "cannot read dis file '" + path + "'");
    }
    rapar::Expected<rapar::Program> dis = rapar::ParseProgram(text);
    if (!dis.ok()) {
      return rapar::Expected<rapar::ParamSystem>::Error(path + ": " +
                                                        dis.error());
    }
    builder.Dis(std::move(dis).value());
  }
  return builder.Build();
}

// Usage/input failure on the verify/mg path: diagnostic on stderr and —
// under --format=json — a minimal machine-readable error envelope on
// stdout (schema_version, command, error, exit_code 3), so callers that
// parse stdout never see a half envelope. Always returns 3.
int FailVerify(const Options& opts, const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  if (opts.format == "json") {
    rapar::JsonWriter w(/*pretty=*/true);
    w.BeginObject();
    w.Key("schema_version").Int(rapar::kResultSchemaVersion);
    w.Key("tool").String("rapar");
    w.Key("command").String(opts.command);
    w.Key("error").String(message);
    w.Key("exit_code").Int(3);
    w.EndObject();
    std::string out = w.TakeString();
    out += '\n';
    std::fputs(out.c_str(), stdout);
  }
  return 3;
}

// Digest of the query a checkpoint belongs to: the printed post-unroll
// env and dis programs plus the goal, which fix the guess enumeration a
// checkpoint's next_index points into.
std::string CheckpointQuery(const rapar::ParamSystem& sys,
                            const Options& opts, bool mg) {
  std::string canonical = "rapar-checkpoint-query-v1\ngoal=";
  canonical += mg ? opts.goal_var + ':' + std::to_string(opts.goal_val)
                  : std::string("assert");
  canonical += "\nenv:\n" + sys.env_program().ToString();
  for (const rapar::Program& dis : sys.dis_programs()) {
    canonical += "dis:\n" + dis.ToString();
  }
  return rapar::FingerprintDigest(canonical);
}

int RunVerify(const Options& opts, bool mg) {
  if (opts.env_file.empty()) return GlobalUsage();
  const bool json = opts.format == "json";

  // Checkpoint/resume is datalog-only: a checkpoint is a position in
  // the makeP guess enumeration, which the other backends do not scan.
  const bool wants_checkpoints =
      !opts.checkpoint_file.empty() || !opts.resume_file.empty() ||
      opts.checkpoint_every > 0 || opts.vopts.datalog.scan_limit > 0;
  if (wants_checkpoints && opts.backend != "datalog") {
    return FailVerify(opts,
                      "--checkpoint/--resume/--checkpoint-every/"
                      "--scan-limit require --backend=datalog");
  }
  // --threads is the concrete backend's env-thread count; serve's
  // env_threads option accepts the same range.
  if (opts.threads.has_value()) {
    if (opts.backend != "concrete") {
      return FailVerify(opts, "flag --threads requires --backend=concrete");
    }
    constexpr int kMaxThreads =
        rapar::ConcreteBackendOptions::kMaxEnvThreads;
    if (*opts.threads < 1 || *opts.threads > kMaxThreads) {
      return FailVerify(
          opts, "flag --threads expects an env-thread count in [1, " +
                    std::to_string(kMaxThreads) + "], got '" +
                    std::to_string(*opts.threads) + "'");
    }
  }

  // The recorder must outlive the whole run so the parse phase is on the
  // trace too.
  rapar::obs::TraceRecorder recorder;
  rapar::obs::TraceRecorder* trace =
      opts.trace_file.empty() ? nullptr : &recorder;

  const auto parse_start = std::chrono::steady_clock::now();
  rapar::Expected<rapar::ParamSystem> sys = [&] {
    rapar::obs::ScopedSpan span(trace, "parse");
    return BuildSystem(opts);
  }();
  const double parse_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - parse_start)
          .count();
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.error().c_str());
    return 3;
  }
  if (!json) std::printf("system: %s\n", sys.value().Signature().c_str());

  rapar::VerifierOptions vopts = opts.vopts;
  const std::optional<rapar::Backend> backend =
      rapar::ParseBackend(opts.backend);
  if (!backend.has_value()) {
    std::fprintf(stderr, "unknown backend '%s'\n", opts.backend.c_str());
    return 3;
  }
  vopts.backend = *backend;
  const std::optional<rapar::tmai::Domain> domain =
      rapar::tmai::ParseDomain(opts.tmai_domain);
  if (!domain.has_value()) {
    std::fprintf(stderr, "unknown TMAI domain '%s'\n",
                 opts.tmai_domain.c_str());
    return 3;
  }
  vopts.tmai.domain = *domain;
  if (opts.threads.has_value()) vopts.concrete.env_threads = *opts.threads;
  vopts.obs.trace = trace;

  std::optional<std::pair<rapar::VarId, rapar::Value>> goal;
  if (mg) {
    rapar::VarId var = sys.value().vars().Find(opts.goal_var);
    if (!var.valid() || opts.goal_val < 0) {
      std::fprintf(stderr, "mg requires --var (declared) and --val >= 0\n");
      return 3;
    }
    goal = std::pair{var, static_cast<rapar::Value>(opts.goal_val)};
  }

  // Checkpoint/resume wiring (validated above: datalog backend only).
  if (!opts.resume_file.empty() || !opts.checkpoint_file.empty()) {
    const std::string query = CheckpointQuery(sys.value(), opts, mg);
    if (!opts.resume_file.empty()) {
      rapar::Expected<rapar::CursorCheckpoint> cp =
          rapar::LoadCheckpointFile(opts.resume_file);
      if (!cp.ok()) {
        return FailVerify(opts, opts.resume_file + ": " + cp.error());
      }
      if (cp.value().query != query) {
        return FailVerify(opts, opts.resume_file +
                                    ": checkpoint was taken for another "
                                    "query (digest " + cp.value().query +
                                    ", this run is " + query + ")");
      }
      vopts.datalog.start_index = cp.value().next_index;
    }
    if (!opts.checkpoint_file.empty()) {
      vopts.datalog.checkpoint_every =
          opts.checkpoint_every > 0
              ? static_cast<std::size_t>(opts.checkpoint_every)
              : 64;
      vopts.datalog.checkpoint_sink =
          [path = opts.checkpoint_file,
           query](const rapar::CursorCheckpoint& position) {
            rapar::CursorCheckpoint cp = position;
            cp.query = query;
            rapar::Expected<bool> r = rapar::SaveCheckpointFile(path, cp);
            if (!r.ok()) {
              std::fprintf(stderr, "checkpoint: %s\n", r.error().c_str());
            }
          };
    }
  }
  rapar::SafetyVerifier verifier(sys.value());
  rapar::Verdict v = verifier.Run(goal, vopts);
  v.telemetry.SetGauge(rapar::obs::metric::kPhaseParseMs, parse_ms);

  if (trace != nullptr && !recorder.WriteFile(opts.trace_file)) {
    std::fprintf(stderr, "cannot write trace file '%s'\n",
                 opts.trace_file.c_str());
    return 3;
  }

  if (json) {
    std::fputs(rapar::VerdictToJson(v, vopts, mg ? "mg" : "verify",
                                    sys.value().Signature())
                   .c_str(),
               stdout);
  } else {
    std::printf("%s\n", v.ToString().c_str());
    if (v.unsafe() && opts.witness) {
      std::printf("witness:\n%s", v.witness.c_str());
    }
    if (opts.metrics) {
      std::printf("metrics:\n");
      for (const rapar::obs::Telemetry::Entry& e : v.telemetry.entries()) {
        if (e.is_gauge) {
          std::printf("  %s=%.3f\n", e.name.c_str(), e.gauge);
        } else {
          std::printf("  %s=%llu\n", e.name.c_str(),
                      static_cast<unsigned long long>(e.counter));
        }
      }
    }
  }
  return rapar::VerdictExitCode(v);
}

// Re-validates a TMAI invariant certificate against the system, mirroring
// the verifier's preparation exactly (same prepass, same goal protection
// derived from the certificate) so the certified thread shapes line up.
int CertCheck(const Options& opts) {
  if (opts.env_file.empty() || opts.cert_file.empty()) return GlobalUsage();
  const bool json = opts.format == "json";

  std::string cert_text;
  if (!ReadFile(opts.cert_file, &cert_text)) {
    std::fprintf(stderr, "cannot read %s\n", opts.cert_file.c_str());
    return 3;
  }
  rapar::Expected<rapar::JsonValue> doc = rapar::ParseJson(cert_text);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", opts.cert_file.c_str(),
                 doc.error().c_str());
    return 3;
  }
  // Accept a whole verdict envelope: descend into its "certificate" key.
  const rapar::JsonValue* cert_json = &doc.value();
  if (cert_json->is_object()) {
    if (const rapar::JsonValue* inner = cert_json->Find("certificate")) {
      cert_json = inner;
    }
  }
  rapar::Expected<rapar::tmai::Certificate> cert =
      rapar::tmai::ParseCertificateJson(*cert_json);
  if (!cert.ok()) {
    std::fprintf(stderr, "%s: %s\n", opts.cert_file.c_str(),
                 cert.error().c_str());
    return 3;
  }

  rapar::Expected<rapar::ParamSystem> sys = BuildSystem(opts);
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.error().c_str());
    return 3;
  }
  // SafetyVerifier's preparation: the certificate was produced against
  // the prepassed CFAs, with the MG goal variable (if any) protected
  // from store slicing.
  const rapar::PreparedSystem prep = rapar::PrepareSystem(
      sys.value().simpl(), /*run_prepass=*/true,
      cert.value().check_assert ? rapar::VarId::Invalid()
                                : rapar::VarId(cert.value().goal_var));
  const rapar::tmai::TmaiSystem tsys =
      rapar::tmai::TmaiSystem::FromSimpl(prep.simpl);

  const rapar::tmai::CertCheckResult res =
      rapar::tmai::CheckCertificate(tsys, cert.value());

  if (json) {
    rapar::obs::Telemetry t;
    t.SetCounter(rapar::obs::metric::kCertcheckValid, res.valid ? 1 : 0);
    t.SetCounter(rapar::obs::metric::kCertcheckNodes, res.nodes_checked);
    t.SetCounter(rapar::obs::metric::kCertcheckEdges, res.edges_checked);
    rapar::JsonWriter w(/*pretty=*/true);
    w.BeginObject();
    w.Key("schema_version").Int(rapar::kResultSchemaVersion);
    w.Key("tool").String("rapar");
    w.Key("command").String("certcheck");
    w.Key("system").String(sys.value().Signature());
    w.Key("valid").Bool(res.valid);
    w.Key("error");
    if (res.error.empty()) {
      w.Null();
    } else {
      w.String(res.error);
    }
    w.Key("exit_code").Int(res.valid ? 0 : 1);
    w.Key("telemetry");
    t.WriteJson(w);
    w.EndObject();
    std::string out = w.TakeString();
    out += '\n';
    std::fputs(out.c_str(), stdout);
  } else if (res.valid) {
    std::printf(
        "certificate: valid (%s domain, %zu invariant disjuncts checked "
        "at %zu edges)\n",
        rapar::tmai::DomainName(cert.value().domain), res.nodes_checked,
        res.edges_checked);
  } else {
    std::printf("certificate: INVALID: %s\n", res.error.c_str());
  }
  return res.valid ? 0 : 1;
}

int DumpDatalog(const Options& opts) {
  if (opts.env_file.empty()) return GlobalUsage();
  rapar::Expected<rapar::ParamSystem> sys = BuildSystem(opts);
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.error().c_str());
    return 3;
  }
  // Walk the whole enumeration for its count, keeping the first four.
  rapar::DisGuessCursor cursor(sys.value().simpl(), rapar::GuessEnumOptions{});
  std::vector<rapar::DisGuess> guesses;
  while (const rapar::IndexedGuess* g = cursor.Next()) {
    if (guesses.size() < 4) guesses.push_back(g->guess);
  }
  std::printf("// %zu makeP guess(es)%s\n", cursor.produced(),
              cursor.complete() ? "" : " (capped)");
  rapar::MakePOptions mopts;
  if (!opts.goal_var.empty() && opts.goal_val >= 0) {
    rapar::VarId var = sys.value().vars().Find(opts.goal_var);
    if (!var.valid()) {
      std::fprintf(stderr, "unknown variable '%s'\n",
                   opts.goal_var.c_str());
      return 3;
    }
    mopts.goal_message = {var, static_cast<rapar::Value>(opts.goal_val)};
  }
  for (std::size_t i = 0; i < guesses.size(); ++i) {
    std::printf("\n// ---- guess %zu ----\n%s\n", i,
                guesses[i].ToString(sys.value().simpl()).c_str());
    rapar::MakePResult q =
        rapar::MakeP(sys.value().simpl(), guesses[i], mopts);
    std::printf("%s", q.prog->ToString().c_str());
  }
  if (cursor.produced() > guesses.size()) {
    std::printf("\n// (%zu further guesses elided)\n",
                cursor.produced() - guesses.size());
  }
  return 0;
}

int DlAnalyze(const Options& opts) {
  if (opts.env_file.empty()) return GlobalUsage();
  rapar::Expected<rapar::ParamSystem> sys = BuildSystem(opts);
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.error().c_str());
    return 3;
  }
  // Walk the whole enumeration for its count, keeping guess N.
  rapar::DisGuessCursor cursor(sys.value().simpl(), rapar::GuessEnumOptions{});
  std::optional<rapar::DisGuess> found;
  while (const rapar::IndexedGuess* g = cursor.Next()) {
    if (static_cast<long long>(g->index) == opts.guess_index) {
      found = g->guess;
    }
  }
  if (!found.has_value()) {
    std::fprintf(stderr, "--guess %d out of range (have %zu guesses)\n",
                 opts.guess_index, cursor.produced());
    return 3;
  }
  rapar::MakePOptions mopts;
  if (!opts.goal_var.empty() && opts.goal_val >= 0) {
    rapar::VarId var = sys.value().vars().Find(opts.goal_var);
    if (!var.valid()) {
      std::fprintf(stderr, "unknown variable '%s'\n",
                   opts.goal_var.c_str());
      return 3;
    }
    mopts.goal_message = {var, static_cast<rapar::Value>(opts.goal_val)};
  }
  rapar::MakePResult q = rapar::MakeP(sys.value().simpl(), *found, mopts);
  rapar::dlopt::DlAnalysis a =
      rapar::dlopt::AnalyzeDlProgram(*q.prog, q.goal);

  if (opts.dot) {
    std::printf("%s", a.graph
                          .ToDot(*q.prog,
                                 a.graph.ReachableFrom(q.goal.pred))
                          .c_str());
    return 0;
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  for (const rapar::Diagnostic& d : a.diagnostics) {
    switch (d.severity) {
      case rapar::Severity::kError:
        ++errors;
        break;
      case rapar::Severity::kWarning:
        ++warnings;
        break;
      case rapar::Severity::kNote:
        ++notes;
        break;
    }
  }

  if (opts.format == "json") {
    std::vector<std::pair<std::string, rapar::Diagnostic>> all;
    for (const rapar::Diagnostic& d : a.diagnostics) {
      all.emplace_back("makeP", d);
    }
    std::fputs(rapar::DiagnosticsToJson("dlanalyze", all).c_str(), stdout);
    return errors + warnings > 0 ? 1 : 0;
  }

  std::printf("system: %s\n", sys.value().Signature().c_str());
  std::printf("// guess %d of %zu%s\n%s\n", opts.guess_index,
              cursor.produced(), cursor.complete() ? "" : " (capped)",
              found->ToString(sys.value().simpl()).c_str());
  std::printf("== dependency graph ==\n%s",
              a.graph.ToText(*q.prog).c_str());
  std::printf("== width / solver classification ==\n%s",
              a.width.ToString(*q.prog, a.graph).c_str());
  std::printf("== optimization ==\n%s\n", a.opt.stats.ToString().c_str());
  std::printf("== diagnostics ==\n");
  for (const rapar::Diagnostic& d : a.diagnostics) {
    std::printf("%s\n", rapar::RenderDiagnostic(d, "makeP", "").c_str());
  }
  std::printf("%zu error(s), %zu warning(s), %zu note(s)\n", errors,
              warnings, notes);
  return errors + warnings > 0 ? 1 : 0;
}

// The long-lived verification daemon: newline-delimited JSON requests on
// stdin, one result envelope per stdout line (core/serve.h has the wire
// protocol). Runs until EOF on stdin.
int Serve(const Options& opts) {
  rapar::serve::ServeSession session(opts.serve);
  session.Run(std::cin, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  const int parse_rc = ParseArgs(argc, argv, &opts);
  if (parse_rc != 0) return parse_rc;
  if (opts.help) return CommandHelp(opts.command);
  if (opts.command == "classify") return Classify(opts);
  if (opts.command == "lint") return Lint(opts);
  if (opts.command == "verify") return RunVerify(opts, /*mg=*/false);
  if (opts.command == "mg") return RunVerify(opts, /*mg=*/true);
  if (opts.command == "dump-datalog") return DumpDatalog(opts);
  if (opts.command == "dlanalyze") return DlAnalyze(opts);
  if (opts.command == "certcheck") return CertCheck(opts);
  if (opts.command == "serve") return Serve(opts);
  return GlobalUsage();
}
