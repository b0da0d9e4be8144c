#include "core/serve.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "core/param_system.h"
#include "core/result_json.h"
#include "core/verifier.h"
#include "lang/parser.h"
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

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

const JsonValue* FindMember(const JsonValue& obj, const char* key) {
  return obj.Find(key);
}

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
  const JsonValue* v = FindMember(obj, key);
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
  const JsonValue* v = FindMember(obj, key);
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
  const JsonValue* v = FindMember(obj, key);
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
  if (req.env_text.empty() && !env_file.empty() &&
      !ReadFile(env_file, &req.env_text)) {
    req.error = "cannot read env file '" + env_file + "'";
    return req;
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
      std::string text;
      if (!item.is_string() || !ReadFile(item.string, &text)) {
        req.error = "cannot read dis file" +
                    (item.is_string() ? " '" + item.string + "'" : "");
        return req;
      }
      req.dis_texts.push_back(std::move(text));
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
  std::string tmai_domain = tmai::DomainName(req.vopts.tmai.domain);
  if (const JsonValue* opts = doc.Find("options")) {
    if (!opts->is_object()) {
      req.error = "field 'options' must be an object";
      return req;
    }
    // Every key read below. Anything else is a decode error, so a
    // misspelled or retired knob never silently runs with its default.
    static constexpr std::string_view kOptionKeys[] = {
        "backend", "tmai_domain", "enable_prepass", "env_threads", "unroll",
        "tmai_max_iterations", "tmai_widening_delay", "tmai_value_set_limit",
        "max_states", "max_depth", "time_budget_ms", "max_guesses"};
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
        !GetString(*opts, "tmai_domain", &tmai_domain, &req.error) ||
        !GetBool(*opts, "enable_prepass", &vo.enable_prepass, &req.error) ||
        !GetIntRange(*opts, "env_threads", &vo.concrete.env_threads, 1,
                     ConcreteBackendOptions::kMaxEnvThreads, &req.error) ||
        !GetIntRange(*opts, "unroll", &req.unroll, 0,
                     ParamSystem::Builder::kMaxUnroll, &req.error) ||
        !GetIntRange(*opts, "tmai_max_iterations", &vo.tmai.max_iterations,
                     0, kKnobMax, &req.error) ||
        !GetIntRange(*opts, "tmai_widening_delay", &vo.tmai.widening_delay,
                     0, kKnobMax, &req.error) ||
        !GetIntRange(*opts, "tmai_value_set_limit",
                     &vo.tmai.value_set_limit, 0, kKnobMax, &req.error) ||
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
  const std::optional<tmai::Domain> domain = tmai::ParseDomain(tmai_domain);
  if (!domain.has_value()) {
    req.error = "unknown TMAI domain \"" + tmai_domain + "\"";
    return req;
  }
  req.vopts.tmai.domain = *domain;
  return req;
}

Expected<ParamSystem> BuildSystem(const Request& req) {
  Expected<Program> env = ParseProgram(req.env_text);
  if (!env.ok()) {
    return Expected<ParamSystem>::Error("env: " + env.error());
  }
  ParamSystem::Builder builder;
  builder.Env(std::move(env).value()).UnrollDis(req.unroll);
  for (std::size_t i = 0; i < req.dis_texts.size(); ++i) {
    Expected<Program> dis = ParseProgram(req.dis_texts[i]);
    if (!dis.ok()) {
      return Expected<ParamSystem>::Error("dis[" + std::to_string(i) +
                                          "]: " + dis.error());
    }
    builder.Dis(std::move(dis).value());
  }
  return builder.Build();
}

// --- cache keys -------------------------------------------------------------

// The option header both cache keys start with: the command, the goal and
// every option field that reaches a backend, in a fixed order. Both keys
// call this one function, so an option added to one key cannot be left
// out of the other. The goal variable is length-prefixed (the request key
// is built before the variable is looked up in the programs); every other
// field is a number or a name from a fixed set.
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
  s += "\ntmai=";
  s += tmai::DomainName(vo.tmai.domain);
  s += ':' + std::to_string(vo.tmai.max_iterations) + ':' +
       std::to_string(vo.tmai.widening_delay) + ':' +
       std::to_string(vo.tmai.value_set_limit) + '\n';
  s += "limits=" + std::to_string(vo.max_states) + ':' +
       std::to_string(vo.max_depth) + ':' +
       std::to_string(vo.time_budget_ms) + ':' +
       std::to_string(vo.max_guesses) + '\n';
  s += "env_threads=" + std::to_string(vo.concrete.env_threads) + '\n';
  s += "unroll=" + std::to_string(req.unroll) + '\n';
}

// The canonical normalization of a request: every input the backends can
// observe, in a fixed order. Two requests get the same canonical string
// exactly when they run the same verification — the pretty-printed
// programs (post-unroll, so `unroll` is captured structurally as well as
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

// The request as sent: the option header, then the env and dis texts
// exactly as decoded (file contents for env_file/dis_files, never the
// paths), each length-prefixed so the key decodes only one way. The
// canonical request is a function of exactly these fields, so equal
// request keys have equal canonical requests, and a repeat found by its
// request key can be answered without parsing.
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

// One-line error envelope; the daemon answers it and keeps serving.
std::string ErrorLine(const std::string& id_json, const std::string& message,
                      bool pretty) {
  JsonWriter w(pretty);
  w.BeginObject();
  w.Key("schema_version").Int(kResultSchemaVersion);
  w.Key("tool").String("rapar");
  w.Key("command").String("error");
  if (!id_json.empty()) w.Key("id").Raw(id_json);
  w.Key("error").String(message);
  w.Key("exit_code").Int(3);
  w.EndObject();
  return w.TakeString();
}

// Re-validates a memoized certificate against the freshly parsed system,
// prepared as the verifier prepared it: the pre-pass only if the
// memoized request ran it, with the certificate's goal variable
// protected.
bool RevalidateCertificate(const ParamSystem& sys, bool ran_prepass,
                           const tmai::Certificate& cert) {
  const PreparedSystem prep = PrepareSystem(
      sys.simpl(), ran_prepass,
      cert.check_assert ? VarId::Invalid() : VarId(cert.goal_var));
  const tmai::TmaiSystem tsys = tmai::TmaiSystem::FromSimpl(prep.simpl);
  return tmai::CheckCertificate(tsys, cert).valid;
}

// A verdict is memoizable only when it is a fact about the program:
// safe/unsafe with no truncation. An unknown (deadline, budget, cap) is
// wall-clock state and must be recomputed.
bool Definitive(const Verdict& v) {
  return v.result != Verdict::Result::kUnknown && v.stopped_phase.empty();
}

}  // namespace

// --- session ----------------------------------------------------------------

struct ServeSession::Impl {
  explicit Impl(const ServeOptions& opts) : options(opts) {}

  // A memoized verdict. It never changes once cached; the LRU list owns
  // it and both indexes point into the list.
  struct CacheEntry {
    std::string key;          // canonical request (cache_index's key view)
    std::string request_key;  // the filling miss's (alias_index's key view)
    std::string digest;
    std::string command;
    std::string signature;
    Verdict verdict;        // pre-stamping: no cache.*/serve.* counters
    VerifierOptions vopts;  // borrowed pointers cleared
    std::size_t bytes = 0;
  };
  using LruList = std::list<CacheEntry>;

  // The entry a miss with exactly this request key filled, unless it
  // carries a certificate: a certificate hit re-checks the proof against
  // a freshly parsed system, so it takes the canonical path. Refreshes
  // LRU order; nullptr when there is no such entry.
  const CacheEntry* LookupAlias(const std::string& request_key) {
    auto it = alias_index.find(request_key);
    if (it == alias_index.end() ||
        it->second->verdict.certificate != nullptr) {
      return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second);
    return &*it->second;
  }

  // The entry for the canonical `key`, with its LRU order refreshed;
  // nullptr on a miss.
  const CacheEntry* Lookup(const std::string& key) {
    auto it = cache_index.find(key);
    if (it == cache_index.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second);
    return &*it->second;
  }

  // Memoizes the entry a miss filled, then evicts least-recently-used
  // entries down to the bounds. The miss found no entry under its
  // canonical key, and equal request keys have equal canonical keys, so
  // its request key is new too.
  void Insert(CacheEntry entry) {
    cache_bytes += entry.bytes;
    lru.push_front(std::move(entry));
    cache_index.emplace(lru.front().key, lru.begin());
    alias_index.emplace(lru.front().request_key, lru.begin());
    while (lru.size() > options.cache_entries ||
           (cache_bytes > options.cache_bytes && lru.size() > 1)) {
      Unlink(std::prev(lru.end()));
      ++evictions;
    }
  }

  void Erase(const std::string& key) {
    auto it = cache_index.find(key);
    if (it == cache_index.end()) return;
    Unlink(it->second);
    ++evictions;
  }

  // Drops one resident entry from the LRU list and both indexes.
  void Unlink(LruList::iterator it) {
    cache_bytes -= it->bytes;
    cache_index.erase(it->key);
    alias_index.erase(it->request_key);
    lru.erase(it);
  }

  ServeOptions options;

  LruList lru;  // front = most recently used
  // Canonical request -> entry, and the request key of the miss that
  // filled an entry -> that entry (one alias per entry), updated together
  // on fill, eviction and Erase.
  std::unordered_map<std::string_view, LruList::iterator> cache_index;
  std::unordered_map<std::string_view, LruList::iterator> alias_index;
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
    ++impl_->errors;
    return ErrorLine("", std::string("internal error: ") + e.what(),
                     impl_->options.pretty);
  } catch (...) {
    ++impl_->errors;
    return ErrorLine("", "internal error", impl_->options.pretty);
  }
}

std::string ServeSession::HandleLineImpl(std::string_view line) {
  Impl& im = *impl_;
  ++im.requests;
  const bool pretty = im.options.pretty;

  Expected<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    ++im.errors;
    return ErrorLine("", "invalid request JSON: " + doc.error(), pretty);
  }

  // --- batch: {"requests":[...]} answered as {"responses":[...]} ---
  // Detected on the top-level member, so plain request lines take the
  // single-request path below byte-for-byte unchanged.
  if (doc.value().is_object()) {
    if (const JsonValue* reqs = doc.value().Find("requests")) {
      std::string batch_id;
      if (const JsonValue* id = doc.value().Find("id")) {
        JsonWriter w;
        WriteJsonValue(*id, &w);
        batch_id = w.TakeString();
      }
      if (!reqs->is_array() || reqs->items.empty()) {
        ++im.errors;
        return ErrorLine(batch_id,
                         "field 'requests' must be a non-empty array",
                         pretty);
      }
      // The line was counted once above; count the remaining elements so
      // serve.requests reflects verifications asked, not stdin lines.
      im.requests += reqs->items.size() - 1;
      JsonWriter w(pretty);
      w.BeginObject();
      if (!batch_id.empty()) w.Key("id").Raw(batch_id);
      w.Key("responses").BeginArray();
      for (const JsonValue& item : reqs->items) {
        // Same never-kill-the-stream contract per element as HandleLine
        // has per line: one failing element answers its own error
        // envelope and the rest of the batch still runs.
        std::string resp;
        try {
          resp = HandleRequestDoc(item);
        } catch (const std::exception& e) {
          ++im.errors;
          resp = ErrorLine("", std::string("internal error: ") + e.what(),
                           pretty);
        } catch (...) {
          ++im.errors;
          resp = ErrorLine("", "internal error", pretty);
        }
        w.Raw(resp);
      }
      w.EndArray();
      w.EndObject();
      return w.TakeString();
    }
  }
  return HandleRequestDoc(doc.value());
}

std::string ServeSession::HandleRequestDoc(const JsonValue& doc) {
  Impl& im = *impl_;
  const bool pretty = im.options.pretty;
  Request req = DecodeRequest(doc);
  if (!req.error.empty()) {
    ++im.errors;
    return ErrorLine(req.id_json, req.error, pretty);
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

  // Envelopes end with '\n' (the one-shot CLI contract); the line
  // protocol owns the terminator, so strip it here.
  const auto one_line = [](std::string s) {
    if (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
  };

  // Answers from a memoized entry. Only the parse gauge, which holds what
  // this request spent parsing, and the cache/serve counters are stamped;
  // everything else — including the echoed options object — replays the
  // entry verbatim (see serve.h for the replay contract).
  const auto replay = [&](const Impl::CacheEntry& entry, double parse_ms) {
    ++im.hits;
    Verdict v = entry.verdict;
    v.telemetry.SetGauge(obs::metric::kPhaseParseMs, parse_ms);
    stamp(v, /*hit=*/true);
    extras.fingerprint = entry.digest;
    extras.cache = "hit";
    return one_line(VerdictToJson(v, entry.vopts, entry.command,
                                  entry.signature, pretty, &extras));
  };

  // --- alias hit: a repeat of the request that filled an entry ---
  const bool cache_on = im.options.cache_entries != 0;
  std::string request_key;
  if (cache_on) {
    request_key = RequestKey(req);
    if (const Impl::CacheEntry* entry = im.LookupAlias(request_key)) {
      return replay(*entry, /*parse_ms=*/0.0);
    }
  }

  const auto parse_start = std::chrono::steady_clock::now();
  Expected<ParamSystem> sys = BuildSystem(req);
  if (!sys.ok()) {
    ++im.errors;
    return ErrorLine(req.id_json, sys.error(), pretty);
  }
  std::optional<std::pair<VarId, Value>> goal;
  if (req.mg) {
    const VarId var = sys.value().vars().Find(req.goal_var);
    if (!var.valid()) {
      ++im.errors;
      return ErrorLine(req.id_json,
                       "unknown variable '" + req.goal_var + "'", pretty);
    }
    goal = {var, static_cast<Value>(req.goal_val)};
  }
  const double parse_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - parse_start)
                              .count();

  const std::string canonical = CanonicalRequest(req, sys.value());
  const std::string digest = FingerprintDigest(canonical);
  const char* command = req.mg ? "mg" : "verify";
  extras.fingerprint = digest;

  // --- cache probe by the canonical request ---
  if (cache_on) {
    if (const Impl::CacheEntry* entry = im.Lookup(canonical)) {
      if (entry->verdict.certificate == nullptr ||
          RevalidateCertificate(sys.value(), entry->vopts.enable_prepass,
                                *entry->verdict.certificate)) {
        return replay(*entry, parse_ms);
      }
      // The memoized proof no longer checks out against this request's
      // system: drop the entry and recompute.
      im.Erase(canonical);
    }
  }

  // --- miss: run the pipeline ---
  ++im.misses;
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
    rendered = one_line(VerdictToJson(stamped, stored_opts, command,
                                      sys.value().Signature(), pretty,
                                      &extras));

    if (cache_on && Definitive(v)) {
      Impl::CacheEntry entry;
      entry.key = canonical;
      entry.request_key = std::move(request_key);
      entry.digest = digest;
      entry.command = command;
      entry.signature = sys.value().Signature();
      entry.verdict = std::move(v);
      entry.vopts = stored_opts;
      entry.bytes =
          entry.key.size() + entry.request_key.size() + rendered.size();
      im.Insert(std::move(entry));
    }
  } catch (const std::exception& e) {
    // Answer the error with the request's id echo still attached.
    ++im.errors;
    return ErrorLine(req.id_json, std::string("internal error: ") + e.what(),
                     pretty);
  } catch (...) {
    ++im.errors;
    return ErrorLine(req.id_json, "internal error", pretty);
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
