// rabench_timed: the end-to-end side of the benchmark. It calls only the
// library facade (SafetyVerifier::Run, serve::ServeSession::HandleLine).
//
//   rabench_timed run    --workload W --seed N --seconds S --out FILE
//                        [--from I] [--setup-reps R] [--poisoned E,E,...]
//   rabench_timed oracle --workload W --seed N --seconds S --out FILE
//                        [--from E] [--cache FILE]
//   rabench_timed concrete --workload W --seed N --seconds S --out FILE
//                        --entries E,E,... [--from K] [--cache FILE]
//   rabench_timed dump   --workload W --seed N --seconds S
//
// `run` sets up (generate, parse, session, warm-up) --setup-reps times,
// then answers requests I.. of the request list in a closed loop, timing
// each with process CPU and timing the reference work between requests.
// `oracle` answers every corpus entry from E on with a different
// algorithm; `concrete` settles a disagreement between a verdict and its
// oracle by searching for a concrete RA execution. Each appends one JSON
// record per line to --out; rabench/run.py supervises them and restarts
// after a crash.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <memory_resource>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "core/result_json.h"
#include "core/serve.h"
#include "core/verifier.h"
#include "driver_util.h"
#include "workloads.h"

namespace rabench {
namespace {

Workload LoadWorkload(const Flags& f) {
  return MakeWorkload(f.Str("workload"), f.Int("seed", 1),
                      static_cast<int>(f.Int("seconds", 10)));
}

// The counts a request's determinism is checked on.
void WriteCounts(rapar::JsonWriter& w, std::uint64_t guesses,
                 std::uint64_t tuples, std::uint64_t firings,
                 std::uint64_t states) {
  w.Key("guesses").UInt(guesses);
  w.Key("tuples").UInt(tuples);
  w.Key("firings").UInt(firings);
  w.Key("states").UInt(states);
}

// Everything the timed loop touches, rebuilt on every set-up repetition.
struct Prepared {
  Workload workload;
  std::vector<BuiltEntry> built;
  std::unique_ptr<rapar::serve::ServeSession> session;
};

// The reference work the timings are normalized by (README.md, "Machine
// speed"): a fixed job of the benchmark's own — hash-map inserts of
// decimal strings, a scan with lookups, a sort — whose cost moves with the
// shared host's memory system the way the verifier's does. It runs on a
// private arena, so the program's heap state cannot reach it (its pages,
// about 0.6 MB, count in peak_rss_mb). Returns its process CPU in ns.
std::int64_t ReferenceNs() {
  constexpr int kEntries = 4000;
  constexpr std::size_t kArenaBytes = 1 << 20;
  static const std::unique_ptr<std::byte[]> buffer(
      new std::byte[kArenaBytes]);
  static volatile std::uint64_t sink = 0;
  const std::int64_t c0 = CpuNs();
  std::pmr::monotonic_buffer_resource arena(
      buffer.get(), kArenaBytes, std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint64_t, std::pmr::string> map(&arena);
  std::uint64_t x = 12345;
  char digits[24];
  for (int i = 0; i < kEntries; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int n = std::snprintf(digits, sizeof(digits), "%llu",
                                static_cast<unsigned long long>(x));
    map.insert_or_assign(x >> 40, std::pmr::string(digits, n, &arena));
  }
  std::pmr::vector<std::uint64_t> keys(&arena);
  keys.reserve(map.size());
  std::uint64_t found = 0;
  for (const auto& [k, v] : map) {
    keys.push_back(k ^ v.size());
    found += map.count(k ^ 1);
  }
  std::sort(keys.begin(), keys.end());
  sink = found + keys[keys.size() / 2];
  return CpuNs() - c0;
}

// Reference samples taken after each set-up repetition, outside its window.
constexpr int kSetupReferenceSamples = 5;

rapar::serve::ServeOptions SessionOptions() {
  rapar::serve::ServeOptions o;
  o.threads = 1;  // one synchronous client: requests run inline
  return o;
}

// Generates the inputs as program text, parses each entry, creates the
// session and runs one untimed warm-up request (on a throwaway session,
// so the measured session starts with an empty cache).
Prepared SetUp(const Flags& f) {
  Prepared p;
  p.workload = LoadWorkload(f);
  p.built.reserve(p.workload.entries.size());
  for (const Entry& e : p.workload.entries) p.built.push_back(BuildEntry(e));
  if (p.workload.serve) {
    rapar::serve::ServeSession warm_up(SessionOptions());
    warm_up.HandleLine(ServeWarmUpLine());
    p.session =
        std::make_unique<rapar::serve::ServeSession>(SessionOptions());
  } else {
    const Entry& e = p.workload.entries.front();
    rapar::SafetyVerifier(*p.built.front().system)
        .Run(p.built.front().goal, OptionsFor(e));
  }
  return p;
}

int Run(const Flags& f) {
  RecordFile out(f.Str("out"));
  const int reps = static_cast<int>(f.Int("setup-reps", 1));
  std::vector<std::int64_t> setup_ns;
  std::vector<std::int64_t> setup_ref_ns;
  Prepared p;
  for (int r = 0; r < reps; ++r) {
    p = Prepared{};  // release the previous repetition outside the window
    // The first repetition counts from process start (driver start).
    const std::int64_t c0 = r == 0 ? 0 : CpuNs();
    p = SetUp(f);
    setup_ns.push_back(CpuNs() - c0);
    for (int k = 0; k < kSetupReferenceSamples; ++k) {
      setup_ref_ns.push_back(ReferenceNs());
    }
  }
  const Workload& w = p.workload;
  {
    rapar::JsonWriter j;
    j.BeginObject().Key("kind").String("setup");
    j.Key("setup_ns").BeginArray();
    for (std::int64_t ns : setup_ns) j.Int(ns);
    j.EndArray();
    // kSetupReferenceSamples per repetition, in order.
    j.Key("setup_ref_ns").BeginArray();
    for (std::int64_t ns : setup_ref_ns) j.Int(ns);
    j.EndArray();
    j.Key("entries").UInt(w.entries.size());
    j.Key("replicates").BeginArray();
    for (std::size_t r : w.replicate_starts) j.UInt(r);
    j.EndArray();
    j.Key("order").BeginArray();
    for (std::uint32_t e : w.requests) j.UInt(e);
    j.EndArray();
    j.EndObject();
    out.Line(j.TakeString());
  }

  const std::vector<std::uint32_t> poisoned_list =
      ParseIndexList(f.Str("poisoned"));
  const std::set<std::uint32_t> poisoned(poisoned_list.begin(),
                                         poisoned_list.end());

  // Memory is measured per replicate like the timings: the peak RSS of
  // each replicate, recorded when the next one starts (untimed).
  const std::size_t from = static_cast<std::size_t>(f.Int("from", 0));
  const auto record_peak = [&out] {
    out.Line("{\"kind\":\"rss\",\"peak_kb\":" +
             std::to_string(PeakRssKb()) + "}");
  };
  // Reference samples before every reference_every-th request and after
  // the last, at fixed positions of the request list, outside every
  // request's window.
  const auto record_reference = [&out, &w](std::size_t before) {
    for (int k = 0; k < w.reference_per_gap; ++k) {
      out.Line("{\"kind\":\"ref\",\"before\":" + std::to_string(before) +
               ",\"ns\":" + std::to_string(ReferenceNs()) + "}");
    }
  };
  ResetPeakRss();
  for (std::size_t i = from; i < w.requests.size(); ++i) {
    const std::uint32_t e = w.requests[i];
    if (i % w.reference_every == 0) record_reference(i);
    if (i != from && std::binary_search(w.replicate_starts.begin(),
                                        w.replicate_starts.end(), i)) {
      record_peak();
      if (w.serve) {
        // A new stream: the daemon restarts with an empty cache.
        p.session.reset();
        p.session =
            std::make_unique<rapar::serve::ServeSession>(SessionOptions());
      }
      ResetPeakRss();
    }
    rapar::JsonWriter j;
    j.BeginObject().Key("i").UInt(i).Key("e").UInt(e);
    if (poisoned.count(e) != 0) {
      // This request killed the daemon earlier in the run; a synchronous
      // client does not resend it. It counts as failed again.
      j.Key("failed").String("poisoned").EndObject();
      out.Line(j.TakeString());
      continue;
    }
    if (w.serve) {
      const std::string& line = w.entries[e].line;
      const std::int64_t c0 = CpuNs();
      const std::string resp = p.session->HandleLine(line);
      const std::int64_t cpu = CpuNs() - c0;
      j.Key("cpu_ns").Int(cpu);
      rapar::Expected<rapar::JsonValue> doc = rapar::ParseJson(resp);
      const rapar::JsonValue* cmd =
          doc.ok() ? doc.value().Find("command") : nullptr;
      if (cmd == nullptr || !cmd->is_string() || cmd->string == "error") {
        const rapar::JsonValue* err =
            doc.ok() ? doc.value().Find("error") : nullptr;
        j.Key("failed").String(err != nullptr && err->is_string()
                                   ? err->string
                                   : std::string("bad response"));
      } else {
        const rapar::JsonValue& d = doc.value();
        const rapar::JsonValue* verdict = d.Find("verdict");
        const rapar::JsonValue* cache = d.Find("cache");
        const rapar::JsonValue* t = d.Find("telemetry");
        j.Key("verdict").String(verdict != nullptr && verdict->is_string()
                                    ? verdict->string
                                    : std::string("unknown"));
        j.Key("cache").String(cache != nullptr && cache->is_string()
                                  ? cache->string
                                  : std::string());
        WriteCounts(j, JsonCounter(t, "verify.guesses"),
                    JsonCounter(t, "datalog.tuples"),
                    JsonCounter(t, "engine.rule_firings"),
                    JsonCounter(t, "verify.states"));
        j.Key("evictions").UInt(JsonCounter(t, "cache.evictions"));
      }
    } else {
      const BuiltEntry& b = p.built[e];
      try {
        const std::int64_t c0 = CpuNs();
        const rapar::Verdict v = rapar::SafetyVerifier(*b.system)
                                     .Run(b.goal, OptionsFor(w.entries[e]));
        const std::int64_t cpu = CpuNs() - c0;
        j.Key("cpu_ns").Int(cpu);
        j.Key("verdict").String(rapar::VerdictName(v.result));
        const rapar::obs::Telemetry& t = v.telemetry;
        WriteCounts(j, t.counter("verify.guesses"), t.counter("datalog.tuples"),
                    t.counter("engine.rule_firings"),
                    t.counter("verify.states"));
      } catch (const std::exception& ex) {
        j.Key("failed").String(std::string("exception: ") + ex.what());
      }
    }
    j.EndObject();
    out.Line(j.TakeString());
  }
  record_reference(w.requests.size());
  record_peak();
  return 0;
}

// Content key of an entry's oracle query, so cached answers are reused
// only for byte-identical queries.
std::string OracleKey(const Entry& e) {
  std::string s = e.env_text;
  for (const std::string& d : e.dis_texts) s += "\x1f" + d;
  s += "\x1e" + e.goal_var + "=" + std::to_string(e.goal_val) + "@" +
       std::to_string(static_cast<int>(e.backend));
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx%08zx",
                static_cast<unsigned long long>(h), s.size() & 0xffffffffu);
  return buf;
}

// Answers cached per checkout, one "key verdict how" line each; a
// process killed mid-entry leaves the entry uncached.
class OracleCache {
 public:
  explicit OracleCache(const std::string& path) {
    if (path.empty()) return;
    std::ifstream in(path);
    std::string key, verdict, how;
    while (in >> key >> verdict >> how) answers_[key] = {verdict, how};
    out_ = std::make_unique<RecordFile>(path);
  }
  const std::pair<std::string, std::string>* Find(const std::string& key) {
    auto it = answers_.find(key);
    return it == answers_.end() ? nullptr : &it->second;
  }
  void Add(const std::string& key, const std::string& verdict,
           const std::string& how) {
    if (out_ != nullptr) out_->Line(key + " " + verdict + " " + how);
  }

 private:
  std::unordered_map<std::string, std::pair<std::string, std::string>>
      answers_;
  std::unique_ptr<RecordFile> out_;
};

void WriteOrder(RecordFile& out, const std::vector<std::uint32_t>& order) {
  rapar::JsonWriter j;
  j.BeginObject().Key("kind").String("setup").Key("order").BeginArray();
  for (std::uint32_t e : order) j.UInt(e);
  j.EndArray().EndObject();
  out.Line(j.TakeString());
}

// The oracle is a different algorithm from the one under test: the
// analytic answer where one exists (catalog facts, EvalQbf), otherwise
// the simplified explorer for Datalog requests and the Datalog backend
// for everything else.
int Oracle(const Flags& f) {
  RecordFile out(f.Str("out"));
  const Workload w = LoadWorkload(f);
  OracleCache cache(f.Str("cache"));
  std::vector<std::uint32_t> all(w.entries.size());
  for (std::size_t e = 0; e < all.size(); ++e) all[e] = e;
  WriteOrder(out, all);
  for (std::size_t e = static_cast<std::size_t>(f.Int("from", 0));
       e < w.entries.size(); ++e) {
    const Entry& entry = w.entries[e];
    std::string verdict, how;
    if (entry.expected_unsafe.has_value()) {
      verdict = *entry.expected_unsafe ? "unsafe" : "safe";
      how = entry.id.rfind("qbf:", 0) == 0 ? "evalqbf" : "catalog";
    } else if (const auto* hit = cache.Find(OracleKey(entry))) {
      verdict = hit->first;
      how = hit->second;
    } else {
      const BuiltEntry b = BuildEntry(entry);
      rapar::VerifierOptions o;
      o.backend = entry.backend == rapar::Backend::kDatalog
                      ? rapar::Backend::kSimplifiedExplorer
                      : rapar::Backend::kDatalog;
      how = o.backend == rapar::Backend::kDatalog ? "datalog" : "simplified";
      verdict = rapar::VerdictName(
          rapar::SafetyVerifier(*b.system).Run(b.goal, o).result);
      cache.Add(OracleKey(entry), verdict, how);
    }
    rapar::JsonWriter j;
    j.BeginObject().Key("e").UInt(e).Key("oracle").String(verdict);
    j.Key("how").String(how).EndObject();
    out.Line(j.TakeString());
  }
  return 0;
}

// Where a verdict and its oracle disagree, one of two backends is wrong.
// The standard RA explorer with 1, 2, then 3 env threads looks for a
// concrete execution reaching the goal; one it finds proves UNSAFE for
// the parameterized system (more env threads only add behaviour).
int Concrete(const Flags& f) {
  RecordFile out(f.Str("out"));
  const Workload w = LoadWorkload(f);
  OracleCache cache(f.Str("cache"));
  const std::vector<std::uint32_t> entries = ParseIndexList(f.Str("entries"));
  WriteOrder(out, entries);
  for (std::size_t k = static_cast<std::size_t>(f.Int("from", 0));
       k < entries.size(); ++k) {
    const Entry& entry = w.entries.at(entries[k]);
    const std::string key = OracleKey(entry) + ":concrete";
    std::string found;
    if (const auto* hit = cache.Find(key)) {
      found = hit->first;
    } else {
      const BuiltEntry b = BuildEntry(entry);
      found = "not-found";
      for (int threads = 1; threads <= 3 && found != "unsafe"; ++threads) {
        rapar::VerifierOptions o;
        o.backend = rapar::Backend::kConcrete;
        o.concrete.env_threads = threads;
        if (rapar::SafetyVerifier(*b.system).Run(b.goal, o).unsafe()) {
          found = "unsafe";
        }
      }
      cache.Add(key, found, "concrete");
    }
    rapar::JsonWriter j;
    j.BeginObject().Key("k").UInt(k).Key("e").UInt(entries[k]);
    j.Key("concrete").String(found).EndObject();
    out.Line(j.TakeString());
  }
  return 0;
}

}  // namespace
}  // namespace rabench

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("missing mode");
    const std::string mode = argv[1];
    const rabench::Flags f(argc, argv, 2);
    if (mode == "run") return rabench::Run(f);
    if (mode == "oracle") return rabench::Oracle(f);
    if (mode == "concrete") return rabench::Concrete(f);
    if (mode == "dump") {
      std::cout << rabench::DumpRequests(rabench::LoadWorkload(f));
      return 0;
    }
    throw std::invalid_argument("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rabench_timed: %s\n", e.what());
    return 2;
  }
}
