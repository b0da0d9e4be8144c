#include "tmai/tmai.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "analysis/dataflow.h"
#include "tmai/certcheck.h"
#include "tmai/fixpoint.h"

namespace rapar::tmai {
namespace internal {
namespace {

// The worklist state attached to each CFA node.
struct NodeState {
  std::vector<AbsState> djs;
  int joins = 0;
};

std::size_t EdgeIndex(const TransferCtx& c, const CfaEdge& edge) {
  // Transfer callbacks receive the edge by reference into the Cfa's
  // edge vector, so the index is recoverable by address.
  return static_cast<std::size_t>(&edge - c.cfa->edges().data());
}

// Values a load of x may return: the view filtered by message presence.
std::vector<Value> Readable(const TransferCtx& c, const AbsState& d,
                            VarId x) {
  std::vector<Value> out;
  for (Value v : d.view[x.index()].Enumerate(c.sys->dom)) {
    if (c.tables->present[x.index()][v]) out.push_back(v);
  }
  return out;
}

// Joins the writer's view after reading message (x,v): intersect with
// the acquire snapshot. The init message (v == 0) constrains nothing.
void AcquireInto(const TransferCtx& c, AbsState& d, VarId x, Value v) {
  if (v == 0) return;
  const VarSets& snap = c.tables->acq[x.index()][v];
  for (std::size_t y = 0; y < d.view.size(); ++y) {
    d.view[y].IntersectWith(snap[y], c.sys->dom);
  }
}

// Must-side effect of reading message (x,v): the pair itself plus the
// producer's must-observations (OBS) enter the reader's causal past.
// Pairs with value 0 carry no information — the init message always
// exists and has an empty past.
void TrackRead(const TransferCtx& c, AbsState& d, VarId x, Value v) {
  if (!c.track_pairs || v == 0) return;
  d.obs.Insert(VarVal{static_cast<std::uint32_t>(x.index()), v});
  const PairSet& prod = c.must->obs[x.index()][v];
  // A top entry means "no store event recorded yet" (vacuous
  // intersection), not "everything observed" — using it would be
  // unsound, so it contributes nothing.
  if (!prod.top()) d.obs.UnionWith(prod);
}

// The relational pruning rules R1/R2 (relational.h): can the case-split
// on reading message (x,v) at the source node of `edge` be dropped for
// the reading disjunct `d`?
bool PrunedRead(const TransferCtx& c, const CfaEdge& edge, const AbsState& d,
                VarId x, Value v) {
  if (c.rel == nullptr) return false;
  const RelationalContext& rel = *c.rel;
  const std::size_t xi = x.index();
  const std::size_t n = edge.from.index();
  const std::size_t num_nodes = c.cfa->num_nodes();
  const std::vector<char>& reach = rel.reach[c.t];
  // True when no (y,w)-storing edge of this thread can reach n — a
  // single instance sitting at n has certainly not yet stored (y,w).
  auto no_own_store_before = [&](std::uint32_t y, Value w) {
    const std::vector<ValueSet>& own = rel.just->edge_store[c.t];
    for (std::size_t e2 = 0; e2 < c.cfa->edges().size(); ++e2) {
      const CfaEdge& cand = c.cfa->edges()[e2];
      if (!cand.instr.IsStoreLike() || cand.instr.var.index() != y) continue;
      if (!own[e2].Contains(w)) continue;
      if (reach[cand.to.index() * num_nodes + n]) return false;
    }
    return true;
  };
  // R1 — causal past. Only a single-instance thread can conclude "I am
  // the sole producer and have not produced yet".
  if (!c.sys->threads[c.t].replicated) {
    auto r1_excludes = [&](std::uint32_t y, Value w) {
      if (w == 0) return false;  // the init message always exists
      for (std::size_t u = 0; u < c.sys->threads.size(); ++u) {
        if (u == c.t) continue;
        if (rel.just->store_vals[u][y].Contains(w)) return false;
      }
      return no_own_store_before(y, w);
    };
    if (v != 0 && r1_excludes(static_cast<std::uint32_t>(xi), v)) return true;
    const PairSet& obs = rel.must->obs[xi][v];
    if (!obs.top()) {
      for (const VarVal& p : obs.pairs()) {
        if (r1_excludes(p.var, p.val)) return true;
      }
    }
  }
  // R2 — consumption linearity. Every producer of (x,v) consumed
  // (y,w); the pair is linear, so there is at most one consumption
  // ever, and this very instance performed it — so the producer was
  // this instance, which cannot have stored (x,v) before reaching n.
  // Valid for replicated threads too: other copies are other instances.
  const PairSet& consumed = rel.must->cons[xi][v];
  if (!consumed.top()) {
    for (const VarVal& p : consumed.pairs()) {
      if (!rel.linear[p.var][p.val]) continue;
      if (!d.cons.Contains(p)) continue;
      if (no_own_store_before(static_cast<std::uint32_t>(xi), v)) return true;
    }
  }
  return false;
}

// Publishes a store of the value set S to x from abstract state `d`
// (view and must-sets taken at the moment of the store) into the
// contribution tables.
void RecordStore(const TransferCtx& c, const CfaEdge& edge, const AbsState& d,
                 VarId x, const ValueSet& S) {
  const std::size_t eidx = EdgeIndex(c, edge);
  if (c.report_edge_store != nullptr) {
    (*c.report_edge_store)[eidx].UnionWith(S);
  }
  if (c.contrib == nullptr) return;
  bool& changed = *c.changed;
  changed |= c.contrib->store_vals[c.t][x.index()].UnionWith(S);
  changed |= c.contrib->edge_store[c.t][eidx].UnionWith(S);
  const VarSets& fut = c.future_own[edge.to.index()];
  for (Value v : S.Enumerate(c.sys->dom)) {
    char& present = c.contrib->present[x.index()][v];
    if (!present) {
      present = 1;
      changed = true;
    }
    if (v == 0) continue;  // init snapshot is already top
    VarSets& snap = c.contrib->acq[x.index()][v];
    for (std::size_t y = 0; y < snap.size(); ++y) {
      // What a reader of (x,v) may subsequently read from y: the
      // writer's view of y now, the writer's own later stores, and
      // anything other threads store at any time.
      ValueSet add =
          (y == x.index()) ? ValueSet::Of(v) : d.view[y];
      add.UnionWith(fut[y]);
      add.UnionWith(c.all_other[y]);
      changed |= snap[y].UnionWith(add);
    }
    if (c.track_pairs) {
      // Must contribution of this store event: the producer's causal
      // past is its obs plus the published pair itself; its own
      // consumptions are d.cons. OBS/CONS(x,v) must be covered by
      // *every* event, so contributions intersect.
      PairSet ev = d.obs;
      ev.Insert(VarVal{static_cast<std::uint32_t>(x.index()), v});
      changed |= c.must_contrib->obs[x.index()][v].IntersectWith(ev);
      changed |= c.must_contrib->cons[x.index()][v].IntersectWith(d.cons);
    }
  }
}

void ReportRead(const TransferCtx& c, const CfaEdge& edge, Value v) {
  if (c.report_edge_read != nullptr) {
    (*c.report_edge_read)[EdgeIndex(c, edge)].Insert(v);
  }
}

// Post-fixpoint classification of one thread's nodes and edges for the
// verdict and the lint diagnostics.
ThreadReport ClassifyThread(TransferCtx c,
                            const std::vector<std::vector<AbsState>>& states) {
  ThreadReport r;
  const Cfa& cfa = *c.cfa;
  r.node_reachable.assign(cfa.num_nodes(), 0);
  r.edge_enabled.assign(cfa.edges().size(), 0);
  r.guard_unsat.assign(cfa.edges().size(), 0);
  r.edge_store_vals.assign(cfa.edges().size(), ValueSet());
  r.edge_read_vals.assign(cfa.edges().size(), ValueSet());
  for (std::size_t n = 0; n < cfa.num_nodes(); ++n) {
    r.node_reachable[n] = !states[n].empty();
  }
  c.contrib = nullptr;
  c.must_contrib = nullptr;
  c.changed = nullptr;
  c.pruned_reads = nullptr;
  c.report_edge_store = &r.edge_store_vals;
  c.report_edge_read = &r.edge_read_vals;
  for (std::size_t e = 0; e < cfa.edges().size(); ++e) {
    const CfaEdge& edge = cfa.edges()[e];
    const std::vector<AbsState>& in = states[edge.from.index()];
    const bool src_reachable = !in.empty();
    if (edge.instr.kind == Instr::Kind::kAssertFail) {
      r.edge_enabled[e] = src_reachable;
      r.assert_reachable |= src_reachable;
      continue;
    }
    std::vector<AbsState> out;
    for (const AbsState& d : in) ApplyEdge(c, edge, d, out);
    r.edge_enabled[e] = !out.empty();
    if (edge.instr.kind == Instr::Kind::kAssume && src_reachable &&
        out.empty()) {
      r.guard_unsat[e] = 1;
    }
  }
  r.interference_empty = true;
  for (const ValueSet& s : c.all_other) {
    if (!s.empty()) r.interference_empty = false;
  }
  return r;
}

// Disjuncts kept per CFA node before merging into their join.
constexpr std::size_t kMaxDisjuncts = 16;

// Disjunctive join with subsumption, a disjunct cap, and widening after
// `widening_delay` joins at the same node.
bool JoinNodeState(const TransferCtx& c, NodeState& into, NodeState& from,
                   std::size_t* max_disjuncts_seen) {
  bool changed = false;
  for (AbsState& d : from.djs) {
    bool subsumed = false;
    for (const AbsState& e : into.djs) {
      if (d.SubsumedBy(e)) {
        subsumed = true;
        break;
      }
    }
    if (subsumed) continue;
    into.djs.push_back(std::move(d));
    changed = true;
  }
  if (!changed) return false;
  into.joins++;
  *max_disjuncts_seen = std::max(*max_disjuncts_seen, into.djs.size());
  const bool widen = into.joins > c.opts->widening_delay;
  if (widen || into.djs.size() > kMaxDisjuncts) {
    AbsState merged = std::move(into.djs.front());
    for (std::size_t i = 1; i < into.djs.size(); ++i) {
      merged.MergeWith(into.djs[i]);
    }
    if (widen) {
      for (ValueSet& s : merged.regs) s.Widen(c.opts->value_set_limit);
      for (ValueSet& s : merged.view) s.Widen(c.opts->value_set_limit);
      merged.obs.Widen(c.opts->value_set_limit);
      merged.cons.Widen(c.opts->value_set_limit);
    }
    into.djs.clear();
    into.djs.push_back(std::move(merged));
  }
  return true;
}

// One thread's forward fixpoint against the current tables.
std::vector<NodeState> AnalyzeThread(const TransferCtx& c,
                                     std::size_t* max_disjuncts_seen) {
  NodeState entry;
  entry.djs.push_back(EntryState(c));
  return SolveForward(
      *c.cfa, std::move(entry), NodeState{},
      [&](const CfaEdge& edge, const NodeState& in) {
        NodeState out;
        for (const AbsState& d : in.djs) ApplyEdge(c, edge, d, out.djs);
        return out;
      },
      [&](NodeState& into, NodeState& from) {
        return JoinNodeState(c, into, from, max_disjuncts_seen);
      });
}

}  // namespace

VarSets ComputeAllOther(const TmaiSystem& sys,
                        const InterferenceTables& tables, std::size_t t) {
  VarSets out(sys.num_vars);
  for (std::size_t u = 0; u < sys.threads.size(); ++u) {
    if (u == t && !sys.threads[u].replicated) continue;
    for (std::size_t x = 0; x < sys.num_vars; ++x) {
      out[x].UnionWith(tables.store_vals[u][x]);
    }
  }
  return out;
}

std::vector<VarSets> ComputeFutureOwn(const TransferCtx& c) {
  const std::size_t num_vars = c.sys->num_vars;
  return SolveBackward(
      *c.cfa, VarSets(num_vars),
      [&](const CfaEdge& edge, const VarSets& at_target) {
        VarSets out = at_target;
        if (edge.instr.IsStoreLike()) {
          out[edge.instr.var.index()].UnionWith(
              c.tables->edge_store[c.t][EdgeIndex(c, edge)]);
        }
        return out;
      },
      [](VarSets& into, const VarSets& from) {
        bool changed = false;
        for (std::size_t x = 0; x < into.size(); ++x) {
          changed |= into[x].UnionWith(from[x]);
        }
        return changed;
      });
}

AbsState EntryState(const TransferCtx& c) {
  AbsState s;
  s.regs.assign(c.cfa->program().regs().size(), ValueSet::Of(kInitValue));
  s.view.resize(c.sys->num_vars);
  for (std::size_t x = 0; x < c.sys->num_vars; ++x) {
    s.view[x] = ValueSet::Of(kInitValue);  // the init message
    s.view[x].UnionWith(c.all_other[x]);   // anything others may store
  }
  return s;
}

void ApplyEdge(const TransferCtx& c, const CfaEdge& edge, const AbsState& d,
               std::vector<AbsState>& out) {
  const Instr& instr = edge.instr;
  const Value dom = c.sys->dom;
  const int limit = c.opts->value_set_limit;
  switch (instr.kind) {
    case Instr::Kind::kNop:
      out.push_back(d);
      break;
    case Instr::Kind::kAssume: {
      AbsState nd = d;
      if (RefineAssume(*instr.expr, nd.regs, dom, limit)) {
        out.push_back(std::move(nd));
      }
      break;
    }
    case Instr::Kind::kAssign: {
      ValueSet v = EvalExprSet(*instr.expr, d.regs, dom, limit);
      if (v.empty()) break;
      AbsState nd = d;
      nd.regs[instr.reg.index()] = std::move(v);
      out.push_back(std::move(nd));
      break;
    }
    case Instr::Kind::kLoad: {
      // Case-split on the loaded value so the acquire refinement stays
      // correlated with it.
      for (Value v : Readable(c, d, instr.var)) {
        if (PrunedRead(c, edge, d, instr.var, v)) {
          if (c.pruned_reads != nullptr) ++*c.pruned_reads;
          continue;
        }
        ReportRead(c, edge, v);
        AbsState nd = d;
        nd.regs[instr.reg.index()] = ValueSet::Of(v);
        AcquireInto(c, nd, instr.var, v);
        TrackRead(c, nd, instr.var, v);
        out.push_back(std::move(nd));
      }
      break;
    }
    case Instr::Kind::kStore: {
      const ValueSet& S = d.regs[instr.reg.index()];
      if (S.empty()) break;
      RecordStore(c, edge, d, instr.var, S);
      AbsState nd = d;
      // Own store becomes the view; later stores by others stay
      // readable.
      nd.view[instr.var.index()] = S;
      nd.view[instr.var.index()].UnionWith(c.all_other[instr.var.index()]);
      if (c.track_pairs) {
        // A singleton store is a must-observation of the published
        // pair (the producer's own past contains it).
        Value v = 0;
        if (S.IsSingleton(dom, &v) && v != 0) {
          nd.obs.Insert(VarVal{static_cast<std::uint32_t>(instr.var.index()),
                               v});
        }
      }
      out.push_back(std::move(nd));
      break;
    }
    case Instr::Kind::kCas: {
      // Blocking CAS: enabled only when a readable message matches the
      // expected register. Acquire-read the message, then release-store
      // the desired value.
      const ValueSet expected = d.regs[instr.reg.index()];
      for (Value e : Readable(c, d, instr.var)) {
        if (!expected.Contains(e)) continue;
        if (PrunedRead(c, edge, d, instr.var, e)) {
          if (c.pruned_reads != nullptr) ++*c.pruned_reads;
          continue;
        }
        ReportRead(c, edge, e);
        AbsState nd = d;
        nd.regs[instr.reg.index()] = ValueSet::Of(e);
        AcquireInto(c, nd, instr.var, e);
        TrackRead(c, nd, instr.var, e);
        if (c.track_pairs) {
          // Record the CAS read as a consumption. Whether it really
          // consumed a dis message (froze its gap) is certified later
          // by R2's linearity check against the frozen justification —
          // an env/replicated/cyclic producer makes the pair
          // non-linear, so a recorded-but-unreal consumption is never
          // acted upon.
          nd.cons.Insert(
              VarVal{static_cast<std::uint32_t>(instr.var.index()), e});
        }
        const ValueSet S = nd.regs[instr.reg2.index()];
        if (S.empty()) continue;
        RecordStore(c, edge, nd, instr.var, S);
        nd.view[instr.var.index()] = S;
        nd.view[instr.var.index()].UnionWith(
            c.all_other[instr.var.index()]);
        if (c.track_pairs) {
          Value v = 0;
          if (S.IsSingleton(dom, &v) && v != 0) {
            nd.obs.Insert(
                VarVal{static_cast<std::uint32_t>(instr.var.index()), v});
          }
        }
        out.push_back(std::move(nd));
      }
      break;
    }
    case Instr::Kind::kAssertFail:
      // Traversing the edge is the violation; it has no successor
      // state. Source reachability is what the verdict checks.
      break;
  }
}

FixpointRun RunFixpoint(const TmaiSystem& sys, const TmaiOptions& opts,
                        bool track_pairs, const RelationalContext* rel) {
  FixpointRun run;
  const std::size_t T = sys.threads.size();
  std::vector<std::size_t> edges_per_thread(T);
  for (std::size_t t = 0; t < T; ++t) {
    edges_per_thread[t] = sys.threads[t].cfa->edges().size();
  }
  run.tables.Init(T, sys.num_vars, static_cast<std::size_t>(sys.dom),
                  edges_per_thread);
  if (track_pairs) {
    run.must.Init(sys.num_vars, static_cast<std::size_t>(sys.dom));
  }

  std::vector<std::vector<NodeState>> states(T);
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    InterferenceTables next = run.tables;
    MustTables next_must = run.must;
    bool changed = false;
    std::size_t pruned = 0;
    for (std::size_t t = 0; t < T; ++t) {
      TransferCtx c;
      c.sys = &sys;
      c.opts = &opts;
      c.tables = &run.tables;
      c.must = track_pairs ? &run.must : nullptr;
      c.contrib = &next;
      c.must_contrib = track_pairs ? &next_must : nullptr;
      c.rel = rel;
      c.track_pairs = track_pairs;
      c.changed = &changed;
      c.pruned_reads = &pruned;
      c.t = t;
      c.cfa = sys.threads[t].cfa;
      c.all_other = ComputeAllOther(sys, run.tables, t);
      c.future_own = ComputeFutureOwn(c);
      states[t] = AnalyzeThread(c, &run.max_disjuncts_seen);
    }
    run.iterations = iter;
    run.pruned_reads = pruned;
    if (!changed) {
      run.converged = true;
      break;
    }
    run.tables = std::move(next);
    run.must = std::move(next_must);
  }

  run.states.assign(T, {});
  for (std::size_t t = 0; t < T; ++t) {
    run.states[t].resize(states[t].size());
    for (std::size_t n = 0; n < states[t].size(); ++n) {
      run.states[t][n] = std::move(states[t][n].djs);
    }
  }
  return run;
}

void FinishConverged(const TmaiSystem& sys, const TmaiGoal& goal,
                     const TmaiOptions& opts, const FixpointRun& run,
                     const RelationalContext* rel, Domain domain,
                     bool emit_certificate, TmaiResult* result) {
  assert(run.converged);
  const std::size_t T = sys.threads.size();
  result->converged = true;
  result->domain_used = domain;
  result->assert_reachable = false;
  result->threads.clear();
  result->threads.reserve(T);
  const bool relational = domain == Domain::kRelational;
  for (std::size_t t = 0; t < T; ++t) {
    TransferCtx c;
    c.sys = &sys;
    c.opts = &opts;
    c.tables = &run.tables;
    c.must = relational ? &run.must : nullptr;
    c.rel = rel;
    c.track_pairs = relational;
    c.t = t;
    c.cfa = sys.threads[t].cfa;
    c.all_other = ComputeAllOther(sys, run.tables, t);
    c.future_own = ComputeFutureOwn(c);
    result->threads.push_back(ClassifyThread(std::move(c), run.states[t]));
    result->assert_reachable |= result->threads.back().assert_reachable;
  }

  if (goal.check_assert) {
    result->safe = !result->assert_reachable;
  } else {
    // MG query: is some message (var, val) ever in memory? val 0 is the
    // init message, trivially present.
    bool stored = goal.val == 0;
    for (std::size_t t = 0; t < T; ++t) {
      stored |= run.tables.store_vals[t][goal.var.index()].Contains(goal.val);
    }
    result->safe = !stored;
  }
  if (result->safe && emit_certificate) {
    result->certificate = BuildCertificate(sys, goal, opts, run.states,
                                           run.tables, run.must, domain);
  }
}

}  // namespace internal

const char* DomainName(Domain d) {
  switch (d) {
    case Domain::kSmallSet:
      return "smallset";
    case Domain::kRelational:
      return "relational";
    case Domain::kAuto:
      return "auto";
  }
  return "smallset";
}

std::optional<Domain> ParseDomain(std::string_view name) {
  for (Domain d : {Domain::kSmallSet, Domain::kRelational, Domain::kAuto}) {
    if (name == DomainName(d)) return d;
  }
  return std::nullopt;
}

bool AbsState::SubsumedBy(const AbsState& o) const {
  for (std::size_t i = 0; i < regs.size(); ++i) {
    if (!regs[i].SubsetOf(o.regs[i])) return false;
  }
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (!view[i].SubsetOf(o.view[i])) return false;
  }
  // Must-sets: `this` is more precise when it knows *more* pairs, so
  // inclusion runs the other way (γ(this) ⊆ γ(o) needs o's knowledge
  // to be a subset of ours).
  return o.obs.SubsetOf(obs) && o.cons.SubsetOf(cons);
}

void AbsState::MergeWith(const AbsState& o) {
  for (std::size_t i = 0; i < regs.size(); ++i) regs[i].UnionWith(o.regs[i]);
  for (std::size_t i = 0; i < view.size(); ++i) view[i].UnionWith(o.view[i]);
  // Must-side join: only pairs both branches guarantee survive.
  obs.IntersectWith(o.obs);
  cons.IntersectWith(o.cons);
}

TmaiSystem TmaiSystem::FromSimpl(const SimplSystem& s) {
  TmaiSystem sys;
  sys.num_vars = s.num_vars;
  sys.dom = s.dom;
  if (s.env != nullptr) {
    sys.threads.push_back(TmaiThread{s.env, /*replicated=*/true});
  }
  // Collapse duplicate dis programs: n copies of one program equal a
  // single self-interfering (replicated) thread.
  const std::size_t first_dis = sys.threads.size();
  for (const Cfa* dis : s.dis) {
    bool found = false;
    for (std::size_t i = first_dis; i < sys.threads.size(); ++i) {
      if (sys.threads[i].cfa == dis) {
        sys.threads[i].replicated = true;
        found = true;
        break;
      }
    }
    if (!found) {
      sys.threads.push_back(TmaiThread{dis, /*replicated=*/false});
    }
  }
  return sys;
}

TmaiResult RunTmai(const TmaiSystem& sys, const TmaiGoal& goal,
                   const TmaiOptions& opts) {
  if (opts.domain == Domain::kRelational) {
    return internal::RunTmaiRelational(sys, goal, opts);
  }
  TmaiResult result;
  internal::FixpointRun run =
      internal::RunFixpoint(sys, opts, /*track_pairs=*/false, nullptr);
  result.iterations = run.iterations;
  result.max_disjuncts_seen = run.max_disjuncts_seen;
  if (run.converged) {
    internal::FinishConverged(sys, goal, opts, run, nullptr,
                              Domain::kSmallSet, /*emit_certificate=*/true,
                              &result);
  }
  if (opts.domain == Domain::kAuto && run.converged && !result.safe) {
    // Retry with the relational domain only on a converged small-set
    // kUnknown — the fast path above stays untouched, and an unconverged
    // run is not paid for twice.
    TmaiResult rel = internal::RunTmaiRelational(sys, goal, opts);
    if (rel.safe) return rel;
    // Keep the (converged) small-set reports for the lints, but
    // surface that the retry ran and what it pruned.
    result.strengthen_rounds = rel.strengthen_rounds;
    result.pruned_reads = rel.pruned_reads;
  }
  return result;
}

}  // namespace rapar::tmai
