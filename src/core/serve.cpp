#include "core/serve.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <iterator>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/param_system.h"
#include "core/result_json.h"
#include "core/verifier.h"
#include "obs/telemetry.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"

namespace rapar::serve {

namespace {

// --- request decoding -------------------------------------------------------

// One decoded request. `error` non-empty means decoding failed and only
// `id_json` is meaningful.
struct Request {
  std::string id_json;  // pre-rendered echo; empty = no id
  bool mg = false;
  std::string env_text;
  std::vector<std::string> dis_texts;
  std::string goal_var;
  long long goal_val = -1;
  int unroll = 0;
  VerifierOptions vopts;
  std::string error;
};

// Ceiling for option knobs that narrow to int downstream: far beyond any
// operational setting, comfortably inside int32.
constexpr long long kKnobMax = 1'000'000'000;
// Ceiling for the knobs that stay 64-bit (state and guess caps, the
// budget): only the lower bound matters.
constexpr long long kCountMax = std::numeric_limits<long long>::max();

// Integer member in [min, max], stored into *out (an integer type that
// holds the whole range); leaves *out untouched when absent. Untrusted
// clients must get a decode error on out-of-range values, never a
// silently wrapped narrow cast or a default in place of a negative count.
template <typename T>
bool GetIntRange(const JsonValue& obj, const char* key, T* out,
                 long long min, long long max, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || !v->number_is_int) {
    *error = std::string("field '") + key + "' must be an integer";
    return false;
  }
  if (v->integer < min || v->integer > max) {
    *error = std::string("field '") + key + "' out of range [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = static_cast<T>(v->integer);
  return true;
}

bool GetBool(const JsonValue& obj, const char* key, bool* out,
             std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    *error = std::string("field '") + key + "' must be a boolean";
    return false;
  }
  *out = v->boolean;
  return true;
}

bool GetString(const JsonValue& obj, const char* key, std::string* out,
               std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    *error = std::string("field '") + key + "' must be a string";
    return false;
  }
  *out = v->string;
  return true;
}

// Decodes the request object into a Request: the library's
// VerifierOptions defaults, except for the daemon's 30 s budget (the
// CLI's too).
Request DecodeRequest(const JsonValue& doc) {
  Request req;
  req.vopts.time_budget_ms = 30'000;

  if (const JsonValue* id = doc.Find("id")) {
    JsonWriter w;
    WriteJsonValue(*id, &w);
    req.id_json = w.TakeString();
  }
  if (!doc.is_object()) {
    req.error = "request must be a JSON object";
    return req;
  }

  std::string command;
  if (!GetString(doc, "command", &command, &req.error)) return req;
  if (command == "mg") {
    req.mg = true;
  } else if (command != "verify") {
    req.error = command.empty() ? "missing \"command\" (verify|mg)"
                                : "unknown command \"" + command + "\"";
    return req;
  }

  // Program sources: inline text wins over file paths.
  std::string env_file;
  if (!GetString(doc, "env", &req.env_text, &req.error)) return req;
  if (!GetString(doc, "env_file", &env_file, &req.error)) return req;
  if (req.env_text.empty() && !env_file.empty()) {
    std::optional<std::string> text = ReadFile(env_file);
    if (!text.has_value()) {
      req.error = "cannot read env file '" + env_file + "'";
      return req;
    }
    req.env_text = std::move(*text);
  }
  if (req.env_text.empty()) {
    req.error = "missing env program (\"env\" text or \"env_file\" path)";
    return req;
  }
  if (const JsonValue* dis = doc.Find("dis")) {
    if (!dis->is_array()) {
      req.error = "field 'dis' must be an array of program texts";
      return req;
    }
    for (const JsonValue& item : dis->items) {
      if (!item.is_string()) {
        req.error = "field 'dis' must be an array of program texts";
        return req;
      }
      req.dis_texts.push_back(item.string);
    }
  }
  if (const JsonValue* dis_files = doc.Find("dis_files")) {
    if (!dis_files->is_array()) {
      req.error = "field 'dis_files' must be an array of paths";
      return req;
    }
    for (const JsonValue& item : dis_files->items) {
      std::optional<std::string> text;
      if (item.is_string()) text = ReadFile(item.string);
      if (!text.has_value()) {
        req.error = "cannot read dis file" +
                    (item.is_string() ? " '" + item.string + "'" : "");
        return req;
      }
      req.dis_texts.push_back(std::move(*text));
    }
  }

  if (!GetString(doc, "var", &req.goal_var, &req.error)) return req;
  if (!GetIntRange(doc, "val", &req.goal_val, 0, kKnobMax, &req.error)) {
    return req;
  }
  if (req.mg && (req.goal_var.empty() || req.goal_val < 0)) {
    req.error = "mg requires \"var\" (declared) and \"val\" >= 0";
    return req;
  }

  // Options object. Every integer is range-checked here, so an
  // out-of-range value answers a decode error.
  std::string backend = BackendName(req.vopts.backend);
  if (const JsonValue* opts = doc.Find("options")) {
    if (!opts->is_object()) {
      req.error = "field 'options' must be an object";
      return req;
    }
    // Every key read below. Anything else is a decode error, so a
    // misspelled or retired knob never silently runs with its default.
    static constexpr std::string_view kOptionKeys[] = {
        "backend",    "enable_prepass", "env_threads",    "unroll",
        "max_states", "max_depth",      "time_budget_ms", "max_guesses"};
    for (const auto& member : opts->members) {
      if (std::find(std::begin(kOptionKeys), std::end(kOptionKeys),
                    member.first) == std::end(kOptionKeys)) {
        req.error = "unknown option \"" + member.first + "\"";
        return req;
      }
    }
    VerifierOptions& vo = req.vopts;
    long long max_depth = -1;
    if (!GetString(*opts, "backend", &backend, &req.error) ||
        !GetBool(*opts, "enable_prepass", &vo.enable_prepass, &req.error) ||
        !GetIntRange(*opts, "env_threads", &vo.concrete.env_threads, 1,
                     ConcreteBackendOptions::kMaxEnvThreads, &req.error) ||
        !GetIntRange(*opts, "unroll", &req.unroll, 0,
                     ParamSystem::Builder::kMaxUnroll, &req.error) ||
        !GetIntRange(*opts, "max_states", &vo.max_states, 0, kCountMax,
                     &req.error) ||
        !GetIntRange(*opts, "max_depth", &max_depth, -1, kKnobMax,
                     &req.error) ||
        !GetIntRange(*opts, "time_budget_ms", &vo.time_budget_ms, 0,
                     kCountMax, &req.error) ||
        !GetIntRange(*opts, "max_guesses", &vo.max_guesses, 0, kCountMax,
                     &req.error)) {
      return req;
    }
    // -1 keeps the default depth cap.
    if (max_depth >= 0) vo.max_depth = static_cast<int>(max_depth);
  }

  const std::optional<Backend> parsed_backend = ParseBackend(backend);
  if (!parsed_backend.has_value()) {
    req.error = "unknown backend \"" + backend + "\"";
    return req;
  }
  req.vopts.backend = *parsed_backend;
  return req;
}

// --- request key and fingerprint --------------------------------------------

// The option header the request key and the canonical request both start
// with: the command, the goal and every option field that reaches a
// backend, in a fixed order. Both call this one function, so an option
// added to one cannot be left out of the other. The goal variable is
// length-prefixed (the request key is built before the variable is looked
// up in the programs); every other field is a number or a name from a
// fixed set.
void AppendOptionHeader(const Request& req, std::string* out) {
  const VerifierOptions& vo = req.vopts;
  std::string& s = *out;
  s += "command=";
  s += req.mg ? "mg" : "verify";
  s += '\n';
  if (req.mg) {
    s += "goal=" + std::to_string(req.goal_var.size()) + ':' + req.goal_var +
         ':' + std::to_string(req.goal_val) + '\n';
  }
  s += "backend=";
  s += BackendName(vo.backend);
  s += "\nprepass=";
  s += vo.enable_prepass ? '1' : '0';
  // TMAI's fixed configuration: no request sets it, but a change to it
  // must still change every key and fingerprint.
  s += "\ntmai=";
  s += tmai::DomainName(TmaiBackendOptions::domain);
  s += ':' + std::to_string(TmaiBackendOptions::max_iterations) + ':' +
       std::to_string(TmaiBackendOptions::widening_delay) + ':' +
       std::to_string(TmaiBackendOptions::value_set_limit) + '\n';
  s += "limits=" + std::to_string(vo.max_states) + ':' +
       std::to_string(vo.max_depth) + ':' +
       std::to_string(vo.time_budget_ms) + ':' +
       std::to_string(vo.max_guesses) + '\n';
  s += "env_threads=" + std::to_string(vo.concrete.env_threads) + '\n';
  s += "unroll=" + std::to_string(req.unroll) + '\n';
}

// The canonical normalization of a request, whose digest is the
// envelope's `fingerprint`: every input the backends can observe, in a
// fixed order. Two requests get the same canonical string exactly when
// they run the same verification — the pretty-printed programs
// (post-unroll, so `unroll` is captured structurally as well as
// textually), the class signature, the goal, and every option field that
// reaches a backend.
std::string CanonicalRequest(const Request& req, const ParamSystem& sys) {
  std::string s;
  s.reserve(512);
  s += "rapar-fingerprint-v1\n";
  AppendOptionHeader(req, &s);
  s += "signature=";
  s += sys.Signature();
  s += "\nenv:\n";
  s += sys.env_program().ToString();
  for (const Program& dis : sys.dis_programs()) {
    s += "dis:\n";
    s += dis.ToString();
  }
  return s;
}

// The cache key, the request as sent: the option header, then the env and
// dis texts exactly as decoded (file contents for env_file/dis_files,
// never the paths), each length-prefixed so the key decodes only one way.
// The canonical request is a function of exactly these fields, so equal
// request keys have equal canonical requests and fingerprints, and a
// repeat found by its request key can be answered without parsing.
std::string RequestKey(const Request& req) {
  std::size_t size = 256 + req.env_text.size();
  for (const std::string& d : req.dis_texts) size += 32 + d.size();
  std::string s;
  s.reserve(size);
  s += "rapar-request-v1\n";
  AppendOptionHeader(req, &s);
  const auto append_text = [&s](const char* tag, const std::string& text) {
    s += tag;
    s += std::to_string(text.size());
    s += '\n';
    s += text;
  };
  append_text("env:", req.env_text);
  for (const std::string& d : req.dis_texts) append_text("dis:", d);
  return s;
}

// Envelopes end with '\n' (the one-shot CLI contract); the line protocol
// owns the terminator, so a response drops it.
std::string OneLine(std::string envelope) {
  if (!envelope.empty() && envelope.back() == '\n') envelope.pop_back();
  return envelope;
}

// Counts an error and answers its one-line error envelope; the daemon
// keeps serving.
std::string AnswerError(std::uint64_t* errors, std::string_view id_json,
                        std::string_view message) {
  ++*errors;
  return OneLine(ErrorToJson("error", message, /*pretty=*/false, id_json));
}

// A verdict is memoizable only when it is a fact about the program:
// safe or unsafe, which SafetyVerifier::Run never marks truncated. An
// unknown (deadline, budget, cap) is wall-clock state and must be
// recomputed.
bool Definitive(const Verdict& v) {
  return v.result != Verdict::Result::kUnknown;
}

}  // namespace

// --- session ----------------------------------------------------------------

struct ServeSession::Impl {
  explicit Impl(const ServeOptions& opts) : options(opts) {}

  // A memoized verdict. It never changes once cached; the LRU list owns
  // it and the index points into the list.
  struct CacheEntry {
    std::string request_key;  // the filling miss's (the index's key view)
    std::string digest;
    std::string command;
    std::string signature;
    Verdict verdict;        // pre-stamping: no cache.*/serve.* counters
    VerifierOptions vopts;  // borrowed pointers cleared
    std::size_t bytes = 0;
  };
  using LruList = std::list<CacheEntry>;

  // What --cache-bytes counts for an entry: its fixed size plus what it
  // holds whose size does not depend on timing — the request key,
  // digest, signature, witness, width report, telemetry names and the
  // certificate (as its JSON rendering). The rendered envelope is not
  // counted: its phase.*_ms gauges print a run-dependent number of
  // digits.
  static std::size_t Bytes(const CacheEntry& e) {
    const Verdict& v = e.verdict;
    std::size_t n = sizeof(CacheEntry) + e.request_key.size() +
                    e.digest.size() + e.signature.size() + v.witness.size() +
                    v.width_report.size();
    for (const obs::Telemetry::Entry& t : v.telemetry.entries()) {
      n += sizeof(t) + t.name.size();
    }
    if (v.certificate != nullptr) {
      JsonWriter w;
      tmai::WriteCertificateJson(*v.certificate, &w);
      n += w.TakeString().size();
    }
    return n;
  }

  // The entry a miss with exactly this request key filled, with its LRU
  // order refreshed; nullptr when there is none.
  const CacheEntry* Lookup(const std::string& request_key) {
    auto it = index.find(request_key);
    if (it == index.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second);
    return &*it->second;
  }

  // Memoizes the entry a miss filled, then evicts least-recently-used
  // entries down to the bounds. The miss found no entry under its
  // request key, so the key is new.
  void Insert(CacheEntry entry) {
    entry.bytes = Bytes(entry);
    cache_bytes += entry.bytes;
    lru.push_front(std::move(entry));
    index.emplace(lru.front().request_key, lru.begin());
    while (lru.size() > options.cache_entries ||
           (cache_bytes > options.cache_bytes && lru.size() > 1)) {
      Unlink(std::prev(lru.end()));
      ++evictions;
    }
  }

  // Drops one resident entry from the LRU list and the index.
  void Unlink(LruList::iterator it) {
    cache_bytes -= it->bytes;
    index.erase(it->request_key);
    lru.erase(it);
  }

  ServeOptions options;

  LruList lru;  // front = most recently used
  // Request key of the miss that filled an entry -> that entry.
  std::unordered_map<std::string_view, LruList::iterator> index;
  std::size_t cache_bytes = 0;

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
};

ServeSession::ServeSession(const ServeOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

ServeSession::~ServeSession() = default;

CacheStats ServeSession::cache_stats() const {
  CacheStats cs;
  cs.hits = impl_->hits;
  cs.misses = impl_->misses;
  cs.evictions = impl_->evictions;
  cs.bytes = impl_->cache_bytes;
  cs.entries = impl_->lru.size();
  return cs;
}

std::string ServeSession::HandleLine(std::string_view line) {
  // The daemon's contract is that errors never kill the stream: any
  // exception the pipeline lets escape (backend throw, allocation
  // failure, writer misuse) becomes a one-line error envelope, exactly
  // like a malformed request.
  try {
    return HandleLineImpl(line);
  } catch (const std::exception& e) {
    return AnswerError(&impl_->errors, "",
                       std::string("internal error: ") + e.what());
  } catch (...) {
    return AnswerError(&impl_->errors, "", "internal error");
  }
}

std::string ServeSession::HandleLineImpl(std::string_view line) {
  Impl& im = *impl_;
  ++im.requests;

  Expected<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    return AnswerError(&im.errors, "", "invalid request JSON: " + doc.error());
  }
  Request req = DecodeRequest(doc.value());
  if (!req.error.empty()) {
    return AnswerError(&im.errors, req.id_json, req.error);
  }

  // Stamps the session-cumulative cache/serve counters; called on a copy
  // of the verdict so the memoized entry stays stamp-free and replays
  // identically no matter when it is hit.
  const auto stamp = [&im](Verdict& v, bool hit) {
    obs::Telemetry& t = v.telemetry;
    t.SetCounter(obs::metric::kCacheHit, hit ? 1 : 0);
    t.SetCounter(obs::metric::kCacheHits, im.hits);
    t.SetCounter(obs::metric::kCacheMisses, im.misses);
    t.SetCounter(obs::metric::kCacheEvictions, im.evictions);
    t.SetCounter(obs::metric::kCacheBytes, im.cache_bytes);
    t.SetCounter(obs::metric::kServeRequests, im.requests);
    t.SetCounter(obs::metric::kServeErrors, im.errors);
  };

  EnvelopeExtras extras;
  extras.id_json = req.id_json;

  // --- cache probe by the request as sent ---
  // A hit answers from the memoized entry without parsing anything: the
  // parse gauge reads 0 and the cache/serve counters are stamped;
  // everything else — the echoed options object and any certificate,
  // which the verifier checked before the entry was filled, included —
  // replays verbatim (see serve.h for the replay contract).
  const bool cache_on = im.options.cache_entries != 0;
  std::string request_key;
  if (cache_on) {
    request_key = RequestKey(req);
    if (const Impl::CacheEntry* entry = im.Lookup(request_key)) {
      ++im.hits;
      Verdict v = entry->verdict;
      v.telemetry.SetGauge(obs::metric::kPhaseParseMs, 0.0);
      stamp(v, /*hit=*/true);
      extras.fingerprint = entry->digest;
      extras.cache = "hit";
      return OneLine(VerdictToJson(v, entry->vopts, entry->command,
                                   entry->signature, /*pretty=*/false,
                                   &extras));
    }
  }

  // --- miss: parse, build, run the pipeline ---
  const auto parse_start = std::chrono::steady_clock::now();
  std::vector<ProgramSource> dis;
  dis.reserve(req.dis_texts.size());
  for (std::size_t i = 0; i < req.dis_texts.size(); ++i) {
    dis.push_back({StrCat("dis[", i, "]"), req.dis_texts[i]});
  }
  Expected<ParamSystem> sys = BuildSystem({"env", req.env_text}, dis,
                                          req.unroll);
  if (!sys.ok()) return AnswerError(&im.errors, req.id_json, sys.error());
  std::optional<std::pair<VarId, Value>> goal;
  if (req.mg) {
    Expected<std::pair<VarId, Value>> resolved =
        ResolveGoal(sys.value(), req.goal_var, req.goal_val, "\"val\"");
    if (!resolved.ok()) {
      return AnswerError(&im.errors, req.id_json, resolved.error());
    }
    goal = resolved.value();
  }
  const double parse_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - parse_start)
                              .count();

  ++im.misses;
  const std::string digest =
      FingerprintDigest(CanonicalRequest(req, sys.value()));
  const char* command = req.mg ? "mg" : "verify";
  extras.fingerprint = digest;
  std::string rendered;
  try {
    SafetyVerifier verifier(sys.value());
    Verdict v = verifier.Run(goal, req.vopts);
    v.telemetry.SetGauge(obs::metric::kPhaseParseMs, parse_ms);

    // Memoize before stamping: the stored verdict carries no
    // session-cumulative counters.
    VerifierOptions stored_opts = req.vopts;
    stored_opts.obs.trace = nullptr;

    extras.cache = "miss";
    Verdict stamped = v;
    stamp(stamped, /*hit=*/false);
    rendered = OneLine(VerdictToJson(stamped, stored_opts, command,
                                     sys.value().Signature(),
                                     /*pretty=*/false, &extras));

    if (cache_on && Definitive(v)) {
      Impl::CacheEntry fill;
      fill.request_key = std::move(request_key);
      fill.digest = digest;
      fill.command = command;
      fill.signature = sys.value().Signature();
      fill.verdict = std::move(v);
      fill.vopts = stored_opts;
      im.Insert(std::move(fill));
    }
  } catch (const std::exception& e) {
    // Answer the error with the request's id echo still attached.
    return AnswerError(&im.errors, req.id_json,
                       std::string("internal error: ") + e.what());
  } catch (...) {
    return AnswerError(&im.errors, req.id_json, "internal error");
  }
  return rendered;
}

void ServeSession::Run(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // Flushed per response: a synchronous client that waits for answer N
    // before sending line N+1 must not wait on the buffer.
    out << HandleLine(line) << '\n';
    out.flush();
  }
}

}  // namespace rapar::serve
