#include "encoding/dis_guess.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace rapar {

namespace {

// Phase A: enumerate a thread's control paths with concrete register
// effects. Loads branch over all domain values; assumes prune. Keeps at
// most `cap` paths and clears *complete if there are more.
void EnumPaths(const Cfa& cfa, Value dom, std::size_t cap,
               std::vector<ThreadGuess>& out, bool* complete) {
  struct Frame {
    NodeId node;
    std::vector<Value> rv;
    ThreadGuess acc;
  };
  std::vector<Frame> stack;
  Frame init;
  init.node = cfa.entry();
  init.rv.assign(cfa.program().regs().size(), kInitValue);
  stack.push_back(std::move(init));

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (cfa.OutEdges(f.node).empty()) {
      // A path past the cap means more than `cap` guesses (every path
      // combination yields at least one), so the scan is cut.
      if (out.size() == cap) {
        *complete = false;
        return;
      }
      out.push_back(std::move(f.acc));
      continue;
    }
    for (EdgeId eid : cfa.OutEdges(f.node)) {
      const CfaEdge& edge = cfa.Edge(eid);
      const Instr& instr = edge.instr;
      GuessStep step;
      step.edge = eid.value();
      switch (instr.kind) {
        case Instr::Kind::kNop: {
          Frame next = f;
          next.node = edge.to;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kAssume: {
          if (instr.expr->Eval(f.rv, dom) == 0) break;
          Frame next = f;
          next.node = edge.to;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kAssertFail: {
          Frame next = f;
          next.node = edge.to;
          next.acc.hits_assert = true;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kAssign: {
          Frame next = f;
          next.rv[instr.reg.index()] = instr.expr->Eval(next.rv, dom);
          next.node = edge.to;
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kLoad: {
          for (Value v = 0; v < dom; ++v) {
            Frame next = f;
            next.rv[instr.reg.index()] = v;
            next.node = edge.to;
            GuessStep s = step;
            s.read_value = v;
            s.rv_after = next.rv;
            next.acc.steps.push_back(std::move(s));
            stack.push_back(std::move(next));
          }
          break;
        }
        case Instr::Kind::kStore: {
          Frame next = f;
          next.node = edge.to;
          step.store_pos = 0;  // position assigned in phase B
          step.rv_after = next.rv;
          next.acc.steps.push_back(std::move(step));
          stack.push_back(std::move(next));
          break;
        }
        case Instr::Kind::kCas: {
          // The CAS reads exactly rv[r1] and stores rv[r2].
          Frame next = f;
          next.node = edge.to;
          GuessStep s = step;
          s.read_value = f.rv[instr.reg.index()];
          s.store_pos = 0;
          s.rv_after = next.rv;
          next.acc.steps.push_back(std::move(s));
          stack.push_back(std::move(next));
          break;
        }
      }
    }
  }
}

// Appends to *out every interleaving of the per-thread store sequences
// `seqs` (each kept in program order), taking at each position the
// lowest-numbered sequence first.
void EnumMerges(const std::vector<std::vector<std::pair<int, int>>>& seqs,
                std::vector<std::size_t>& idx,
                std::vector<std::pair<int, int>>& acc,
                std::vector<std::vector<std::pair<int, int>>>* out) {
  bool done = true;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (idx[i] < seqs[i].size()) {
      done = false;
      acc.push_back(seqs[i][idx[i]]);
      ++idx[i];
      EnumMerges(seqs, idx, acc, out);
      --idx[i];
      acc.pop_back();
    }
  }
  if (done) out->push_back(acc);
}

}  // namespace

std::vector<DisGuess> EnumerateDisGuesses(const SimplSystem& sys,
                                          const GuessEnumOptions& options,
                                          bool* complete) {
  DisGuessCursor cursor(sys, options);
  std::vector<DisGuess> out;
  while (const IndexedGuess* g = cursor.Next()) out.push_back(g->guess);
  *complete = cursor.complete();
  return out;
}

// --- CursorCheckpoint -------------------------------------------------------

std::string CursorCheckpoint::ToJson(bool pretty) const {
  JsonWriter w(pretty);
  w.BeginObject();
  w.Key("schema_version").Int(kSchemaVersion);
  w.Key("kind").String("rapar-cursor-checkpoint");
  w.Key("query").String(query);
  w.Key("next_index").UInt(next_index);
  w.Key("exhausted").Bool(exhausted);
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

Expected<CursorCheckpoint> CursorCheckpoint::FromJson(std::string_view text) {
  using E = Expected<CursorCheckpoint>;
  Expected<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) return E::Error("checkpoint: " + doc.error());
  const JsonValue& v = doc.value();
  if (!v.is_object()) return E::Error("checkpoint: not a JSON object");
  const JsonValue* kind = v.Find("kind");
  if (kind == nullptr || !kind->is_string() ||
      kind->string != "rapar-cursor-checkpoint") {
    return E::Error("checkpoint: missing kind \"rapar-cursor-checkpoint\"");
  }
  const JsonValue* ver = v.Find("schema_version");
  if (ver == nullptr || !ver->is_number() || !ver->number_is_int) {
    return E::Error("checkpoint: missing integer schema_version");
  }
  if (ver->integer != kSchemaVersion) {
    return E::Error(StrCat("checkpoint: schema_version ", ver->integer,
                           " unsupported (expected ", kSchemaVersion, ")"));
  }
  CursorCheckpoint cp;
  const JsonValue* query = v.Find("query");
  if (query == nullptr || !query->is_string()) {
    return E::Error("checkpoint: field 'query' missing or not a string");
  }
  cp.query = query->string;
  const JsonValue* next = v.Find("next_index");
  if (next == nullptr || !next->is_number()) {
    return E::Error("checkpoint: field 'next_index' missing");
  }
  if (next->number_is_uint) {
    cp.next_index = static_cast<std::size_t>(next->uinteger);
  } else if (next->number_is_int && next->integer >= 0) {
    cp.next_index = static_cast<std::size_t>(next->integer);
  } else {
    return E::Error(
        "checkpoint: field 'next_index' negative or non-integer");
  }
  const JsonValue* ex = v.Find("exhausted");
  if (ex == nullptr || !ex->is_bool()) {
    return E::Error("checkpoint: field 'exhausted' missing or not a boolean");
  }
  cp.exhausted = ex->boolean;
  return E{std::move(cp)};
}

namespace {

std::string ErrnoText(const char* what) {
  return StrCat(what, ": ", std::strerror(errno));
}

}  // namespace

Expected<CursorCheckpoint> LoadCheckpointFile(const std::string& path) {
  const std::optional<std::string> text = ReadFile(path);
  if (!text.has_value()) {
    return Expected<CursorCheckpoint>::Error(
        StrCat("cannot read checkpoint file '", path, "'"));
  }
  return CursorCheckpoint::FromJson(*text);
}

Expected<bool> SaveCheckpointFile(const std::string& path,
                                  const CursorCheckpoint& cp) {
  const std::string tmp = path + ".tmp";
  const std::string text = cp.ToJson();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Expected<bool>::Error(ErrnoText("checkpoint open"));
  }
  const char* p = text.data();
  std::size_t left = text.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = ErrnoText("checkpoint write");
      ::close(fd);
      ::unlink(tmp.c_str());
      return Expected<bool>::Error(err);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never publish a torn file.
  if (::fsync(fd) != 0) {
    const std::string err = ErrnoText("checkpoint fsync");
    ::close(fd);
    ::unlink(tmp.c_str());
    return Expected<bool>::Error(err);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = ErrnoText("checkpoint rename");
    ::unlink(tmp.c_str());
    return Expected<bool>::Error(err);
  }
  return true;
}

// --- DisGuessCursor ---------------------------------------------------------

DisGuessCursor::DisGuessCursor(const SimplSystem& sys,
                               const GuessEnumOptions& options)
    : sys_(sys), options_(options) {}

const IndexedGuess* DisGuessCursor::Next() {
  while (!done_) {
    const bool more = started_ ? Step() : Start();
    started_ = true;
    if (!more) {
      Finish(paths_complete_);
      break;
    }
    // The odometers hold the guess at global index next_index_; one at the
    // cap means the cap cuts the enumeration. The cap is on the global
    // index so a resumed scan cuts the same prefix as an uninterrupted one.
    if (next_index_ >= options_.max_guesses) {
      Finish(false);
      break;
    }
    const std::size_t idx = next_index_++;
    // Resume suppresses emission only: the global index keeps counting.
    if (idx < options_.start_index) continue;
    current_.index = idx;
    ++produced_;
    return &current_;
  }
  return nullptr;
}

std::size_t DisGuessCursor::NextChunk(std::size_t max_chunk,
                                      std::vector<IndexedGuess>* out) {
  std::size_t n = 0;
  for (; n < max_chunk; ++n) {
    const IndexedGuess* g = Next();
    if (g == nullptr) break;
    out->push_back(*g);
  }
  return n;
}

void DisGuessCursor::Finish(bool complete) {
  done_ = true;
  complete_ = complete;
}

bool DisGuessCursor::Start() {
  const std::size_t n = sys_.dis.size();
  paths_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    bool all = true;
    EnumPaths(*sys_.dis[t], sys_.dom, options_.max_guesses, paths_[t], &all);
    if (paths_[t].empty()) {
      // No executable path: no guess at all (unless the cap is 0).
      paths_complete_ = all;
      return false;
    }
    paths_complete_ = paths_complete_ && all;
  }
  path_digit_.assign(n, 0);
  current_.guess.threads.resize(n);
  current_.guess.mem.assign(sys_.num_vars, {});
  ChoosePaths(0);
  return true;
}

bool DisGuessCursor::Step() {
  for (std::size_t k = reads_.size(); k-- > 0;) {
    if (++reads_[k].digit < reads_[k].sources.size()) {
      ApplyRead(reads_[k]);
      for (std::size_t j = k + 1; j < reads_.size(); ++j) {
        reads_[j].digit = 0;
        ApplyRead(reads_[j]);
      }
      return true;
    }
  }
  for (std::size_t x = merges_.size(); x-- > 0;) {
    if (++merge_digit_[x] < merges_[x].size()) {
      ChooseMerges(x);
      return true;
    }
  }
  for (std::size_t t = paths_.size(); t-- > 0;) {
    if (++path_digit_[t] < paths_[t].size()) {
      ChoosePaths(t);
      return true;
    }
  }
  return false;
}

void DisGuessCursor::ChoosePaths(std::size_t t) {
  std::vector<ThreadGuess>& threads = current_.guess.threads;
  for (std::size_t u = t; u < threads.size(); ++u) {
    if (u > t) path_digit_[u] = 0;
    threads[u] = paths_[u][path_digit_[u]];
  }
  // Store events per variable and per thread, in program order.
  std::vector<std::vector<std::vector<StoreEvent>>> events(
      sys_.num_vars, std::vector<std::vector<StoreEvent>>(threads.size()));
  reads_.clear();
  for (std::size_t u = 0; u < threads.size(); ++u) {
    const Cfa& cfa = *sys_.dis[u];
    for (std::size_t s = 0; s < threads[u].steps.size(); ++s) {
      const GuessStep& step = threads[u].steps[s];
      const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
      const bool cas = instr.kind == Instr::Kind::kCas;
      if (step.store_pos >= 0) {
        events[instr.var.index()][u].push_back(
            {static_cast<int>(u), static_cast<int>(s)});
      }
      if (cas || instr.kind == Instr::Kind::kLoad) {
        ReadSlot r;
        r.thread = u;
        r.step = s;
        r.var = instr.var.index();
        r.cas = cas;
        reads_.push_back(std::move(r));
      }
    }
  }
  merges_.assign(sys_.num_vars, {});
  for (std::size_t x = 0; x < sys_.num_vars; ++x) {
    std::erase_if(events[x], [](const std::vector<StoreEvent>& seq) {
      return seq.empty();
    });
    std::vector<std::size_t> idx(events[x].size(), 0);
    std::vector<StoreEvent> acc;
    EnumMerges(events[x], idx, acc, &merges_[x]);
  }
  merge_digit_.assign(sys_.num_vars, 0);
  ChooseMerges(0);
}

void DisGuessCursor::ChooseMerges(std::size_t x) {
  for (std::size_t y = x; y < merges_.size(); ++y) {
    if (y > x) merge_digit_[y] = 0;
    ApplyMerge(y);
  }
  for (ReadSlot& r : reads_) {
    SetSources(r);
    ApplyRead(r);
  }
}

void DisGuessCursor::ApplyMerge(std::size_t x) {
  const std::vector<StoreEvent>& order = merges_[x][merge_digit_[x]];
  std::vector<MemCell>& cells = current_.guess.mem[x];
  cells.resize(order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    const auto [t, s] = order[p];
    GuessStep& step = current_.guess.threads[t].steps[s];
    step.store_pos = static_cast<int>(p) + 1;
    const Instr& instr = sys_.dis[t]->Edge(EdgeId(step.edge)).instr;
    // Store value: for stores rv[reg]; for CAS rv[reg2]. rv is unchanged
    // by both, so rv_after works.
    cells[p].val = instr.kind == Instr::Kind::kCas
                       ? step.rv_after[instr.reg2.index()]
                       : step.rv_after[instr.reg.index()];
    cells[p].thread = t;
    cells[p].step_idx = s;
    cells[p].glued = false;
  }
}

void DisGuessCursor::SetSources(ReadSlot& r) {
  const GuessStep& step = current_.guess.threads[r.thread].steps[r.step];
  const std::vector<MemCell>& cells = current_.guess.mem[r.var];
  r.sources.clear();
  r.digit = 0;
  if (r.cas) {
    // CAS on a dis message: adjacency forces the load at position p-1.
    const int p = step.store_pos;
    const Value below = p == 1 ? kInitValue : cells[p - 2].val;
    if (below == step.read_value) r.sources.push_back(p - 1);
  } else {
    // Init message (value 0), or any dis store of the value read.
    if (step.read_value == kInitValue) r.sources.push_back(0);
    for (std::size_t p = 1; p <= cells.size(); ++p) {
      if (cells[p - 1].val == step.read_value) {
        r.sources.push_back(static_cast<int>(p));
      }
    }
  }
  // Env (for a CAS, the env clone sits directly below: no glue).
  r.sources.push_back(kEnvSource);
}

void DisGuessCursor::ApplyRead(const ReadSlot& r) {
  GuessStep& step = current_.guess.threads[r.thread].steps[r.step];
  const int source = r.sources[r.digit];
  step.read_from_env = source == kEnvSource;
  step.read_dis_pos = source;
  if (r.cas) {
    current_.guess.mem[r.var][static_cast<std::size_t>(step.store_pos) - 1]
        .glued = source != kEnvSource;
  }
}

std::string DisGuess::ToString(const SimplSystem& sys) const {
  std::string out = "guess:\n";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const Cfa& cfa = *sys.dis[t];
    out += StrCat("  dis", t, threads[t].hits_assert ? " (asserts)" : "",
                  ":\n");
    for (const GuessStep& s : threads[t].steps) {
      const Instr& instr = cfa.Edge(EdgeId(s.edge)).instr;
      out += StrCat("    ", instr.ToString(cfa.program().vars(),
                                           cfa.program().regs()));
      if (s.read_value >= 0) {
        out += StrCat(" [reads ", s.read_value,
                      s.read_from_env
                          ? " from env"
                          : StrCat(" from dis@", s.read_dis_pos), "]");
      }
      if (s.store_pos > 0) out += StrCat(" [stores at ", s.store_pos, "]");
      out += "\n";
    }
  }
  for (std::size_t x = 0; x < mem.size(); ++x) {
    out += StrCat("  mem[", x, "]:");
    for (const MemCell& c : mem[x]) {
      out += StrCat(" ", c.val, c.glued ? "g" : "");
    }
    out += "\n";
  }
  return out;
}

}  // namespace rapar
