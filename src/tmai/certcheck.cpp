#include "tmai/certcheck.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "tmai/fixpoint.h"

namespace rapar::tmai {
namespace {

bool ValueSetInRange(const ValueSet& s, Value dom) {
  if (s.top()) return true;
  for (Value v : s.Enumerate(dom)) {
    if (v < 0 || v >= dom) return false;
  }
  return true;
}

bool PairSetInRange(const PairSet& s, std::size_t num_vars, Value dom) {
  if (s.top()) return true;
  for (const VarVal& p : s.pairs()) {
    if (p.var >= num_vars || p.val < 0 || p.val >= dom) return false;
  }
  return true;
}

bool Covered(const AbsState& s, const std::vector<AbsState>& djs) {
  for (const AbsState& d : djs) {
    if (s.SubsumedBy(d)) return true;
  }
  return false;
}

}  // namespace

std::shared_ptr<const Certificate> BuildCertificate(
    const TmaiSystem& sys, const TmaiGoal& goal, const TmaiOptions& opts,
    const std::vector<std::vector<std::vector<AbsState>>>& states,
    const InterferenceTables& tables, const MustTables& must, Domain domain) {
  auto cert = std::make_shared<Certificate>();
  cert->domain = domain;
  cert->check_assert = goal.check_assert;
  cert->goal_var = goal.check_assert
                       ? 0
                       : static_cast<std::uint32_t>(goal.var.index());
  cert->goal_val = goal.check_assert ? 0 : goal.val;
  cert->num_vars = sys.num_vars;
  cert->dom = sys.dom;
  cert->value_set_limit = opts.value_set_limit;
  cert->threads.reserve(sys.threads.size());
  for (std::size_t t = 0; t < sys.threads.size(); ++t) {
    Certificate::Thread th;
    th.replicated = sys.threads[t].replicated;
    th.num_nodes = sys.threads[t].cfa->num_nodes();
    th.num_edges = sys.threads[t].cfa->edges().size();
    th.invariants = states[t];
    cert->threads.push_back(std::move(th));
  }
  cert->tables = tables;
  cert->must = must;
  return cert;
}

CertCheckResult CheckCertificate(const TmaiSystem& sys,
                                 const Certificate& cert) {
  CertCheckResult res;

  // ---- Condition 1: shape, ranges, and the axioms the fixpoint pins
  // (init-message rows) — everything the inductive argument assumes but
  // does not itself re-derive. A certificate from an untrusted source
  // must not be able to index outside the tables or smuggle in
  // must-information about the init message.
  if (cert.schema_version != kCertificateSchemaVersion) {
    res.error = StrCat("unsupported certificate schema_version ",
                       cert.schema_version);
    return res;
  }
  if (cert.domain != Domain::kSmallSet && cert.domain != Domain::kRelational) {
    res.error = "certificate domain must be smallset or relational";
    return res;
  }
  const std::size_t V = sys.num_vars;
  const Value dom = sys.dom;
  const std::size_t T = sys.threads.size();
  if (cert.num_vars != V || cert.dom != dom) {
    res.error = StrCat("certificate is for a different system shape (",
                       cert.num_vars, " vars, dom ", cert.dom, " vs ", V,
                       " vars, dom ", dom, ")");
    return res;
  }
  if (cert.value_set_limit < 1) {
    res.error = "certificate value_set_limit must be positive";
    return res;
  }
  if (!cert.check_assert) {
    if (cert.goal_var >= V || cert.goal_val <= 0 || cert.goal_val >= dom) {
      res.error = "certificate MG goal out of range";
      return res;
    }
  }
  if (cert.threads.size() != T) {
    res.error = StrCat("certificate has ", cert.threads.size(),
                       " threads, system has ", T);
    return res;
  }
  for (std::size_t t = 0; t < T; ++t) {
    const Cfa& cfa = *sys.threads[t].cfa;
    const Certificate::Thread& th = cert.threads[t];
    if (th.replicated != sys.threads[t].replicated ||
        th.num_nodes != cfa.num_nodes() ||
        th.num_edges != cfa.edges().size() ||
        th.invariants.size() != cfa.num_nodes()) {
      res.error = StrCat("certificate thread ", t,
                         " does not match the system's CFA shape");
      return res;
    }
    const std::size_t R = cfa.program().regs().size();
    for (std::size_t n = 0; n < th.invariants.size(); ++n) {
      for (const AbsState& d : th.invariants[n]) {
        if (d.regs.size() != R || d.view.size() != V) {
          res.error = StrCat("certificate thread ", t, " node ", n,
                             ": malformed invariant disjunct");
          return res;
        }
        bool ok = PairSetInRange(d.obs, V, dom) &&
                  PairSetInRange(d.cons, V, dom);
        for (const ValueSet& s : d.regs) ok = ok && ValueSetInRange(s, dom);
        for (const ValueSet& s : d.view) ok = ok && ValueSetInRange(s, dom);
        if (!ok) {
          res.error = StrCat("certificate thread ", t, " node ", n,
                             ": invariant value out of range");
          return res;
        }
      }
    }
  }
  const InterferenceTables& tb = cert.tables;
  if (tb.store_vals.size() != T || tb.acq.size() != V ||
      tb.present.size() != V || tb.edge_store.size() != T) {
    res.error = "certificate interference tables have wrong dimensions";
    return res;
  }
  for (std::size_t t = 0; t < T; ++t) {
    bool ok = tb.store_vals[t].size() == V &&
              tb.edge_store[t].size() == sys.threads[t].cfa->edges().size();
    if (ok) {
      for (const ValueSet& s : tb.store_vals[t]) {
        ok = ok && ValueSetInRange(s, dom);
      }
      for (const ValueSet& s : tb.edge_store[t]) {
        ok = ok && ValueSetInRange(s, dom);
      }
    }
    if (!ok) {
      res.error =
          StrCat("certificate store tables malformed for thread ", t);
      return res;
    }
  }
  for (std::size_t x = 0; x < V; ++x) {
    bool ok = tb.acq[x].size() == static_cast<std::size_t>(dom) &&
              tb.present[x].size() == static_cast<std::size_t>(dom) &&
              tb.present[x][0];  // the init message always exists
    if (ok) {
      for (const std::vector<ValueSet>& snap : tb.acq[x]) {
        ok = ok && snap.size() == V;
        if (!ok) break;
        for (const ValueSet& s : snap) ok = ok && ValueSetInRange(s, dom);
      }
    }
    if (!ok) {
      res.error = StrCat("certificate acquire/present tables malformed ",
                         "for variable ", x);
      return res;
    }
  }
  const bool relational = cert.domain == Domain::kRelational;
  if (relational) {
    const MustTables& mt = cert.must;
    if (mt.obs.size() != V || mt.cons.size() != V) {
      res.error = "certificate must tables have wrong dimensions";
      return res;
    }
    for (std::size_t x = 0; x < V; ++x) {
      bool ok = mt.obs[x].size() == static_cast<std::size_t>(dom) &&
                mt.cons[x].size() == static_cast<std::size_t>(dom) &&
                // The init message has an empty causal past and no
                // consumptions; a certificate claiming otherwise could
                // prune reads of init messages unsoundly.
                mt.obs[x][0].empty() && mt.cons[x][0].empty();
      if (ok) {
        for (const PairSet& p : mt.obs[x]) {
          ok = ok && PairSetInRange(p, V, dom);
        }
        for (const PairSet& p : mt.cons[x]) {
          ok = ok && PairSetInRange(p, V, dom);
        }
      }
      if (!ok) {
        res.error =
            StrCat("certificate must tables malformed for variable ", x);
        return res;
      }
    }
  }

  // ---- Conditions 2 + 3: entry coverage and inductiveness, with the
  // pruning rules justified by the certificate's own tables (sound by
  // the first-uncovered-event induction in the header comment). Table
  // contributions accumulate into copies; any growth (may side) or
  // shrink (must side) means the tables are not closed.
  internal::RelationalContext rel;
  if (relational) {
    rel = internal::BuildRelationalContext(sys, cert.tables, cert.must);
  }
  TmaiOptions opts;
  opts.value_set_limit = cert.value_set_limit;
  InterferenceTables may_closure = cert.tables;
  MustTables must_closure = cert.must;
  bool changed = false;
  for (std::size_t t = 0; t < T; ++t) {
    internal::TransferCtx c;
    c.sys = &sys;
    c.opts = &opts;
    c.tables = &cert.tables;
    c.must = relational ? &cert.must : nullptr;
    c.contrib = &may_closure;
    c.must_contrib = relational ? &must_closure : nullptr;
    c.rel = relational ? &rel : nullptr;
    c.track_pairs = relational;
    c.changed = &changed;
    c.t = t;
    c.cfa = sys.threads[t].cfa;
    c.all_other = internal::ComputeAllOther(sys, cert.tables, t);
    c.future_own = internal::ComputeFutureOwn(c);
    const std::vector<std::vector<AbsState>>& inv = cert.threads[t].invariants;
    if (!Covered(internal::EntryState(c), inv[0])) {
      res.error = StrCat("thread ", t,
                         ": entry state not covered by the invariant");
      return res;
    }
    res.nodes_checked += inv.size();
    for (std::size_t e = 0; e < c.cfa->edges().size(); ++e) {
      const CfaEdge& edge = c.cfa->edges()[e];
      ++res.edges_checked;
      if (edge.instr.kind == Instr::Kind::kAssertFail) {
        // ---- Condition 4a: assert-goal exclusion.
        if (cert.check_assert && !inv[edge.from.index()].empty()) {
          res.error = StrCat("thread ", t, ": assert edge ", e,
                             " has a reachable source");
          return res;
        }
        continue;
      }
      std::vector<AbsState> out;
      for (const AbsState& d : inv[edge.from.index()]) {
        internal::ApplyEdge(c, edge, d, out);
      }
      for (const AbsState& o : out) {
        if (!Covered(o, inv[edge.to.index()])) {
          res.error =
              StrCat("thread ", t, ": invariant not inductive at edge ", e);
          return res;
        }
      }
    }
  }
  if (changed) {
    res.error = "interference tables not closed under the invariants";
    return res;
  }

  // ---- Condition 4b: MG-goal exclusion.
  if (!cert.check_assert) {
    for (std::size_t t = 0; t < T; ++t) {
      if (tb.store_vals[t][cert.goal_var].Contains(cert.goal_val)) {
        res.error = StrCat("thread ", t, " may store the goal value ",
                           cert.goal_val, " to variable ", cert.goal_var);
        return res;
      }
    }
  }

  res.valid = true;
  return res;
}

namespace {

void WriteValueSet(const ValueSet& s, Value dom, JsonWriter* w) {
  if (s.top()) {
    w->String("top");
    return;
  }
  w->BeginArray();
  for (Value v : s.Enumerate(dom)) w->Int(v);
  w->EndArray();
}

void WritePairSet(const PairSet& s, JsonWriter* w) {
  if (s.top()) {
    w->String("top");
    return;
  }
  w->BeginArray();
  for (const VarVal& p : s.pairs()) {
    w->BeginArray().UInt(p.var).Int(p.val).EndArray();
  }
  w->EndArray();
}

void WriteAbsState(const AbsState& d, Value dom, JsonWriter* w) {
  w->BeginObject();
  w->Key("regs").BeginArray();
  for (const ValueSet& s : d.regs) WriteValueSet(s, dom, w);
  w->EndArray();
  w->Key("view").BeginArray();
  for (const ValueSet& s : d.view) WriteValueSet(s, dom, w);
  w->EndArray();
  w->Key("obs");
  WritePairSet(d.obs, w);
  w->Key("cons");
  WritePairSet(d.cons, w);
  w->EndObject();
}

}  // namespace

void WriteCertificateJson(const Certificate& cert, JsonWriter* w) {
  const Value dom = cert.dom;
  w->BeginObject();
  w->Key("schema_version").Int(cert.schema_version);
  w->Key("domain").String(DomainName(cert.domain));
  w->Key("check_assert").Bool(cert.check_assert);
  if (!cert.check_assert) {
    w->Key("goal_var").UInt(cert.goal_var);
    w->Key("goal_val").Int(cert.goal_val);
  }
  w->Key("value_set_limit").Int(cert.value_set_limit);
  w->Key("num_vars").UInt(cert.num_vars);
  w->Key("dom").Int(dom);
  w->Key("threads").BeginArray();
  for (const Certificate::Thread& th : cert.threads) {
    w->BeginObject();
    w->Key("replicated").Bool(th.replicated);
    w->Key("num_nodes").UInt(th.num_nodes);
    w->Key("num_edges").UInt(th.num_edges);
    w->Key("invariants").BeginArray();
    for (const std::vector<AbsState>& djs : th.invariants) {
      w->BeginArray();
      for (const AbsState& d : djs) WriteAbsState(d, dom, w);
      w->EndArray();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->Key("tables").BeginObject();
  w->Key("store_vals").BeginArray();
  for (const auto& row : cert.tables.store_vals) {
    w->BeginArray();
    for (const ValueSet& s : row) WriteValueSet(s, dom, w);
    w->EndArray();
  }
  w->EndArray();
  w->Key("acq").BeginArray();
  for (const auto& by_val : cert.tables.acq) {
    w->BeginArray();
    for (const auto& snap : by_val) {
      w->BeginArray();
      for (const ValueSet& s : snap) WriteValueSet(s, dom, w);
      w->EndArray();
    }
    w->EndArray();
  }
  w->EndArray();
  w->Key("present").BeginArray();
  for (const auto& row : cert.tables.present) {
    w->BeginArray();
    for (char p : row) w->Int(p ? 1 : 0);
    w->EndArray();
  }
  w->EndArray();
  w->Key("edge_store").BeginArray();
  for (const auto& row : cert.tables.edge_store) {
    w->BeginArray();
    for (const ValueSet& s : row) WriteValueSet(s, dom, w);
    w->EndArray();
  }
  w->EndArray();
  w->EndObject();
  if (cert.domain == Domain::kRelational) {
    w->Key("must").BeginObject();
    w->Key("obs").BeginArray();
    for (const auto& row : cert.must.obs) {
      w->BeginArray();
      for (const PairSet& p : row) WritePairSet(p, w);
      w->EndArray();
    }
    w->EndArray();
    w->Key("cons").BeginArray();
    for (const auto& row : cert.must.cons) {
      w->BeginArray();
      for (const PairSet& p : row) WritePairSet(p, w);
      w->EndArray();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
}

namespace {

// Parse helpers. Structural and representational validation only
// (types, int bounds, sortedness via Insert); range validation against
// the system shape is CheckCertificate's job.

bool JsonToValue(const JsonValue& v, Value* out) {
  if (!v.is_number() || !v.number_is_int) return false;
  if (v.integer < std::numeric_limits<Value>::min() ||
      v.integer > std::numeric_limits<Value>::max()) {
    return false;
  }
  *out = static_cast<Value>(v.integer);
  return true;
}

bool JsonToSize(const JsonValue& v, std::size_t* out) {
  if (!v.is_number() || !v.number_is_int || v.integer < 0) return false;
  *out = static_cast<std::size_t>(v.integer);
  return true;
}

bool ParseValueSet(const JsonValue& v, ValueSet* out) {
  if (v.is_string() && v.string == "top") {
    *out = ValueSet::Top();
    return true;
  }
  if (!v.is_array()) return false;
  *out = ValueSet();
  for (const JsonValue& item : v.items) {
    Value val = 0;
    if (!JsonToValue(item, &val)) return false;
    out->Insert(val);
  }
  return true;
}

bool ParsePairSet(const JsonValue& v, PairSet* out) {
  if (v.is_string() && v.string == "top") {
    *out = PairSet::Top();
    return true;
  }
  if (!v.is_array()) return false;
  *out = PairSet();
  for (const JsonValue& item : v.items) {
    if (!item.is_array() || item.items.size() != 2) return false;
    std::size_t var = 0;
    Value val = 0;
    if (!JsonToSize(item.items[0], &var) ||
        var > std::numeric_limits<std::uint32_t>::max() ||
        !JsonToValue(item.items[1], &val)) {
      return false;
    }
    out->Insert(VarVal{static_cast<std::uint32_t>(var), val});
  }
  return true;
}

bool ParseAbsState(const JsonValue& v, AbsState* out) {
  if (!v.is_object()) return false;
  const JsonValue* regs = v.Find("regs");
  const JsonValue* view = v.Find("view");
  const JsonValue* obs = v.Find("obs");
  const JsonValue* cons = v.Find("cons");
  if (regs == nullptr || !regs->is_array() || view == nullptr ||
      !view->is_array() || obs == nullptr || cons == nullptr) {
    return false;
  }
  out->regs.resize(regs->items.size());
  for (std::size_t i = 0; i < regs->items.size(); ++i) {
    if (!ParseValueSet(regs->items[i], &out->regs[i])) return false;
  }
  out->view.resize(view->items.size());
  for (std::size_t i = 0; i < view->items.size(); ++i) {
    if (!ParseValueSet(view->items[i], &out->view[i])) return false;
  }
  return ParsePairSet(*obs, &out->obs) && ParsePairSet(*cons, &out->cons);
}

bool ParseValueSetMatrix(const JsonValue& v,
                         std::vector<std::vector<ValueSet>>* out) {
  if (!v.is_array()) return false;
  out->resize(v.items.size());
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    const JsonValue& row = v.items[i];
    if (!row.is_array()) return false;
    (*out)[i].resize(row.items.size());
    for (std::size_t j = 0; j < row.items.size(); ++j) {
      if (!ParseValueSet(row.items[j], &(*out)[i][j])) return false;
    }
  }
  return true;
}

bool ParsePairSetMatrix(const JsonValue& v,
                        std::vector<std::vector<PairSet>>* out) {
  if (!v.is_array()) return false;
  out->resize(v.items.size());
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    const JsonValue& row = v.items[i];
    if (!row.is_array()) return false;
    (*out)[i].resize(row.items.size());
    for (std::size_t j = 0; j < row.items.size(); ++j) {
      if (!ParsePairSet(row.items[j], &(*out)[i][j])) return false;
    }
  }
  return true;
}

}  // namespace

Expected<Certificate> ParseCertificateJson(const JsonValue& v) {
  auto err = [](std::string_view what) {
    return Expected<Certificate>::Error(
        StrCat("malformed certificate: ", what));
  };
  if (!v.is_object()) return err("not an object");
  Certificate cert;

  const JsonValue* f = v.Find("schema_version");
  if (f == nullptr || !f->is_number() || !f->number_is_int) {
    return err("missing schema_version");
  }
  cert.schema_version = static_cast<int>(f->integer);

  f = v.Find("domain");
  if (f == nullptr || !f->is_string()) return err("missing domain");
  // A certificate names the domain that proved it; kAuto is a retry
  // policy, not a domain.
  const std::optional<Domain> domain = ParseDomain(f->string);
  if (!domain.has_value() || *domain == Domain::kAuto) {
    return err("unknown domain");
  }
  cert.domain = *domain;

  f = v.Find("check_assert");
  if (f == nullptr || !f->is_bool()) return err("missing check_assert");
  cert.check_assert = f->boolean;
  if (!cert.check_assert) {
    const JsonValue* gv = v.Find("goal_var");
    const JsonValue* gl = v.Find("goal_val");
    std::size_t var = 0;
    if (gv == nullptr || gl == nullptr || !JsonToSize(*gv, &var) ||
        var > std::numeric_limits<std::uint32_t>::max() ||
        !JsonToValue(*gl, &cert.goal_val)) {
      return err("missing or malformed MG goal");
    }
    cert.goal_var = static_cast<std::uint32_t>(var);
  }

  f = v.Find("value_set_limit");
  if (f == nullptr || !f->is_number() || !f->number_is_int) {
    return err("missing value_set_limit");
  }
  cert.value_set_limit = static_cast<int>(f->integer);

  f = v.Find("num_vars");
  if (f == nullptr || !JsonToSize(*f, &cert.num_vars)) {
    return err("missing num_vars");
  }
  f = v.Find("dom");
  if (f == nullptr || !JsonToValue(*f, &cert.dom)) return err("missing dom");

  f = v.Find("threads");
  if (f == nullptr || !f->is_array()) return err("missing threads");
  cert.threads.resize(f->items.size());
  for (std::size_t t = 0; t < f->items.size(); ++t) {
    const JsonValue& tv = f->items[t];
    Certificate::Thread& th = cert.threads[t];
    const JsonValue* rep = tv.Find("replicated");
    const JsonValue* nn = tv.Find("num_nodes");
    const JsonValue* ne = tv.Find("num_edges");
    const JsonValue* inv = tv.Find("invariants");
    if (!tv.is_object() || rep == nullptr || !rep->is_bool() ||
        nn == nullptr || !JsonToSize(*nn, &th.num_nodes) || ne == nullptr ||
        !JsonToSize(*ne, &th.num_edges) || inv == nullptr ||
        !inv->is_array()) {
      return err(StrCat("thread ", t));
    }
    th.replicated = rep->boolean;
    th.invariants.resize(inv->items.size());
    for (std::size_t n = 0; n < inv->items.size(); ++n) {
      const JsonValue& node = inv->items[n];
      if (!node.is_array()) return err(StrCat("thread ", t, " node ", n));
      th.invariants[n].resize(node.items.size());
      for (std::size_t d = 0; d < node.items.size(); ++d) {
        if (!ParseAbsState(node.items[d], &th.invariants[n][d])) {
          return err(StrCat("thread ", t, " node ", n, " disjunct ", d));
        }
      }
    }
  }

  f = v.Find("tables");
  if (f == nullptr || !f->is_object()) return err("missing tables");
  const JsonValue* sv = f->Find("store_vals");
  const JsonValue* acq = f->Find("acq");
  const JsonValue* present = f->Find("present");
  const JsonValue* es = f->Find("edge_store");
  if (sv == nullptr || !ParseValueSetMatrix(*sv, &cert.tables.store_vals) ||
      es == nullptr || !ParseValueSetMatrix(*es, &cert.tables.edge_store)) {
    return err("tables.store_vals/edge_store");
  }
  if (acq == nullptr || !acq->is_array()) return err("tables.acq");
  cert.tables.acq.resize(acq->items.size());
  for (std::size_t x = 0; x < acq->items.size(); ++x) {
    if (!ParseValueSetMatrix(acq->items[x], &cert.tables.acq[x])) {
      return err("tables.acq");
    }
  }
  if (present == nullptr || !present->is_array()) return err("tables.present");
  cert.tables.present.resize(present->items.size());
  for (std::size_t x = 0; x < present->items.size(); ++x) {
    const JsonValue& row = present->items[x];
    if (!row.is_array()) return err("tables.present");
    cert.tables.present[x].resize(row.items.size());
    for (std::size_t val = 0; val < row.items.size(); ++val) {
      Value bit = 0;
      if (!JsonToValue(row.items[val], &bit) || (bit != 0 && bit != 1)) {
        return err("tables.present");
      }
      cert.tables.present[x][val] = static_cast<char>(bit);
    }
  }

  if (cert.domain == Domain::kRelational) {
    f = v.Find("must");
    if (f == nullptr || !f->is_object()) return err("missing must tables");
    const JsonValue* obs = f->Find("obs");
    const JsonValue* cons = f->Find("cons");
    if (obs == nullptr || !ParsePairSetMatrix(*obs, &cert.must.obs) ||
        cons == nullptr || !ParsePairSetMatrix(*cons, &cert.must.cons)) {
      return err("must tables");
    }
  }
  return cert;
}

}  // namespace rapar::tmai
