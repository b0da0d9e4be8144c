#include "encoding/makep.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

#include "analysis/reachability.h"
#include "common/strings.h"

namespace rapar {

namespace {

using dl::Atom;
using dl::C;
using dl::Native;
using dl::PredId;
using dl::Rule;
using dl::Sym;
using dl::Term;
using dl::V;

// Predicate ids of the four base predicates: AddPrefix declares them
// first, in this order, so every program of a system shares them.
constexpr PredId kEmp = 0;
constexpr PredId kDmp = 1;
constexpr PredId kEtp = 2;
constexpr PredId kUnsafe = 3;

// The value a dis store or CAS step writes.
Value StoredValue(const Instr& instr, const GuessStep& step) {
  return instr.kind == Instr::Kind::kCas ? step.rv_after[instr.reg2.index()]
                                         : step.rv_after[instr.reg.index()];
}

bool Writes(Instr::Kind kind) {
  return kind == Instr::Kind::kStore || kind == Instr::Kind::kCas;
}

// Appends `n` as a LEB128 varint of its zigzag code, so the small
// numbers a key holds take one byte each and a key still decodes one way.
void AppendNumber(std::string* key, std::int64_t n) {
  std::uint64_t u = (static_cast<std::uint64_t>(n) << 1) ^
                    static_cast<std::uint64_t>(n >> 63);
  for (; u >= 0x80; u >>= 7) key->push_back(static_cast<char>(u | 0x80));
  key->push_back(static_cast<char>(u));
}

// The store profile: per variable, its dis store count and glue flags.
void AppendProfile(const DisGuess& guess, std::string* key) {
  for (const std::vector<MemCell>& cells : guess.mem) {
    AppendNumber(key, static_cast<std::int64_t>(cells.size()));
    for (const MemCell& c : cells) key->push_back(c.glued ? '1' : '0');
  }
}

// Emits the parts of one guess's program into `prog`. Convention for
// constants: abstract timestamps are interned first so that Sym value ==
// encoded timestamp; domain values follow at offset val_off_; then node
// and variable tags. A view is packed (makep.h): component y takes bits_
// bits at Shift(y) of word WordOf(y), and view words are raw Sym values,
// not interned constants. AddPrefix emits everything that depends on the
// guess only through its store profile; AddDisPart appends the guess's
// dis chains and goal rules to a program that holds that prefix.
class Builder {
 public:
  Builder(const SimplSystem& sys, const DisGuess& guess,
          const MakePOptions& options, dl::Program* prog)
      : sys_(sys), guess_(guess), options_(options), prog_(prog) {
    k_ = sys.num_vars;
    m_ = sys.env->program().regs().size();
    // Maximum abstract timestamp: 2*T_x + 1 over all variables.
    max_ts_ = 1;
    for (std::size_t x = 0; x < k_; ++x) {
      max_ts_ = std::max(max_ts_, 2 * guess.StoresOn(x) + 1);
    }
    layout_.components = static_cast<std::uint32_t>(k_);
    layout_.bits = static_cast<std::uint32_t>(
        std::bit_width(static_cast<unsigned>(max_ts_)));
    words_ = layout_.Words();
    val_off_ = static_cast<Sym>(max_ts_ + 1);
    node_off_ = val_off_ + static_cast<Sym>(sys.dom);
    var_off_ = node_off_ + static_cast<Sym>(sys.env->num_nodes());
  }

  // Constants, base predicates, init facts and env rules; env edges
  // flagged in `edge_dead` emit nothing.
  void AddPrefix(const std::vector<bool>& edge_dead) {
    for (int t = 0; t <= max_ts_; ++t) {
      Sym s = prog_->ConstSym(StrCat("$ts", AbsTsToString(t)));
      assert(s == static_cast<Sym>(t));
      (void)s;
    }
    for (Value v = 0; v < sys_.dom; ++v) {
      Sym s = prog_->ConstSym(StrCat("$val", v));
      assert(s == val_off_ + static_cast<Sym>(v));
      (void)s;
    }
    for (std::size_t n = 0; n < sys_.env->num_nodes(); ++n) {
      prog_->ConstSym(StrCat("$n", n));
    }
    for (std::size_t x = 0; x < k_; ++x) {
      prog_->ConstSym(
          StrCat("$var_", sys_.env->program().vars().Name(
                              VarId(static_cast<std::uint32_t>(x)))));
    }
    prog_->SetViewLayout(layout_);

    [[maybe_unused]] const PredId emp =
        prog_->AddPred("emp", 2 + words_, /*view=*/true);
    [[maybe_unused]] const PredId dmp =
        prog_->AddPred("dmp", 2 + words_, /*view=*/true);
    [[maybe_unused]] const PredId etp =
        prog_->AddPred("etp", 1 + m_ + words_, /*view=*/true);
    [[maybe_unused]] const PredId unsafe = prog_->AddPred("unsafe", 0);
    assert(emp == kEmp && dmp == kDmp && etp == kEtp && unsafe == kUnsafe);

    AddFacts();
    AddEnvRules(edge_dead);
  }

  // The guess's dtp chains, then the MG goal rules.
  void AddDisPart() {
    AddDisChains();
    AddGoalRules();
  }

 private:
  Sym ValSym(Value v) const { return val_off_ + static_cast<Sym>(v); }
  Sym NodeSym(NodeId n) const {
    return node_off_ + static_cast<Sym>(n.value());
  }
  Sym NodeSym(std::uint32_t n) const { return node_off_ + n; }
  Sym VarSymOf(VarId x) const { return var_off_ + x.value(); }

  // --- packed views --------------------------------------------------------

  std::size_t WordOf(std::size_t y) const { return y / layout_.PerWord(); }
  std::uint32_t Shift(std::size_t y) const {
    return static_cast<std::uint32_t>(y % layout_.PerWord()) * layout_.bits;
  }
  // The view word whose component y is `ts` and every other component 0.
  Term TsWord(std::size_t y, int ts) const {
    return C(static_cast<Sym>(ts) << Shift(y));
  }

  // Check: component y of view word a <= component y of view word b.
  Native LeqAt(std::size_t y, Term a, Term b) const {
    Native n;
    n.op = Native::Op::kLeq;
    n.shift = static_cast<std::uint8_t>(Shift(y));
    n.width = static_cast<std::uint8_t>(layout_.bits);
    n.name = "leq";
    n.inputs = {a, b};
    return n;
  }

  // out = the component-wise max of view words a and b.
  Native MaxWord(Term a, Term b, dl::VarSym out) const {
    Native n;
    n.op = Native::Op::kMax;
    n.width = static_cast<std::uint8_t>(layout_.bits);
    n.name = "max";
    n.inputs = {a, b};
    n.output = out;
    return n;
  }

  // Appends to `r` the join of the views in words a0.. and b0.. into
  // words out0.., and returns the joined view.
  std::vector<Term> Join(Rule& r, dl::VarSym a0, dl::VarSym b0,
                         dl::VarSym out0) const {
    std::vector<Term> w;
    for (std::size_t i = 0; i < words_; ++i) {
      const dl::VarSym d = static_cast<dl::VarSym>(i);
      r.natives.push_back(MaxWord(V(a0 + d), V(b0 + d), out0 + d));
      w.push_back(V(out0 + d));
    }
    return w;
  }

  // Sets component y of view `w` to `ts` through `out`: a max with the
  // word holding ts at y. Every caller's checks bound y's timestamps in
  // `w` by ts, so the max is ts there, and 0 leaves the rest unchanged.
  void FixComponent(Rule& r, std::vector<Term>& w, std::size_t y, int ts,
                    dl::VarSym out) const {
    r.natives.push_back(MaxWord(w[WordOf(y)], TsWord(y, ts), out));
    w[WordOf(y)] = V(out);
  }

  // --- expression natives ----------------------------------------------------

  // Decodes an expression native's inputs (every env register, as
  // symbols offset by `off`) into register values without allocating.
  // The buffer is per thread, not per closure: the closure stays
  // immutable, so separate verifiers may still evaluate their programs
  // on separate threads.
  static std::span<const Value> Registers(std::span<const Sym> in, Sym off) {
    thread_local std::vector<Value> rv;
    rv.resize(in.size());
    for (std::size_t r = 0; r < in.size(); ++r) {
      rv[r] = static_cast<Value>(in[r] - off);
    }
    return rv;
  }

  Native ExprCheck(const ExprPtr& expr) const {
    Native n;
    n.name = "assume";
    for (std::size_t r = 0; r < m_; ++r) {
      n.inputs.push_back(V(static_cast<dl::VarSym>(r)));
    }
    const Sym off = val_off_;
    const Value dom = sys_.dom;
    n.fn = [expr, off, dom](std::span<const Sym> in, Sym*) {
      return expr->Eval(Registers(in, off), dom) != 0;
    };
    return n;
  }

  Native ExprFn(const ExprPtr& expr, dl::VarSym out) const {
    Native n;
    n.name = "eval";
    for (std::size_t r = 0; r < m_; ++r) {
      n.inputs.push_back(V(static_cast<dl::VarSym>(r)));
    }
    n.output = out;
    const Sym off = val_off_;
    const Value dom = sys_.dom;
    n.fn = [expr, off, dom](std::span<const Sym> in, Sym* o) {
      *o = off + static_cast<Sym>(expr->Eval(Registers(in, off), dom));
      return true;
    };
    return n;
  }

  // --- env rule plumbing ----------------------------------------------------
  //
  // Variable layout for env rules: 0..m-1 registers, m..m+W-1 view words,
  // then scratch variables from m+W upward.

  Term RvVar(std::size_t r) const { return V(static_cast<dl::VarSym>(r)); }
  Term ViewVar(std::size_t w) const {
    return V(static_cast<dl::VarSym>(m_ + w));
  }
  dl::VarSym Scratch() const { return static_cast<dl::VarSym>(m_ + words_); }

  Atom EtpAtom(NodeId node, const std::vector<Term>& rv,
               const std::vector<Term>& view) const {
    Atom a;
    a.pred = kEtp;
    a.args.push_back(C(NodeSym(node)));
    a.args.insert(a.args.end(), rv.begin(), rv.end());
    a.args.insert(a.args.end(), view.begin(), view.end());
    return a;
  }

  std::vector<Term> IdentityRv() const {
    std::vector<Term> rv;
    for (std::size_t r = 0; r < m_; ++r) rv.push_back(RvVar(r));
    return rv;
  }
  std::vector<Term> IdentityView() const {
    std::vector<Term> vw;
    for (std::size_t w = 0; w < words_; ++w) vw.push_back(ViewVar(w));
    return vw;
  }

  void AddFacts() {
    // Initial dis (init) messages: value d_init, zero view.
    for (std::size_t x = 0; x < k_; ++x) {
      Atom a;
      a.pred = kDmp;
      a.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      a.args.push_back(C(ValSym(kInitValue)));
      a.args.insert(a.args.end(), words_, C(0));
      prog_->AddFact(std::move(a));
    }
    // Initial env-thread configuration.
    {
      Atom a;
      a.pred = kEtp;
      a.args.push_back(C(NodeSym(std::uint32_t{0})));
      a.args.insert(a.args.end(), m_, C(ValSym(kInitValue)));
      a.args.insert(a.args.end(), words_, C(0));
      prog_->AddFact(std::move(a));
    }
  }

  void AddEnvRules(const std::vector<bool>& edge_dead) {
    const Cfa& cfa = *sys_.env;
    for (std::size_t ei = 0; ei < cfa.edges().size(); ++ei) {
      if (edge_dead[ei]) continue;
      const CfaEdge& edge = cfa.edges()[ei];
      const Instr& instr = edge.instr;
      switch (instr.kind) {
        case Instr::Kind::kNop: {
          Rule r;
          r.head = EtpAtom(edge.to, IdentityRv(), IdentityView());
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          prog_->AddRule(std::move(r));
          break;
        }
        case Instr::Kind::kAssume: {
          Rule r;
          r.head = EtpAtom(edge.to, IdentityRv(), IdentityView());
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          r.natives.push_back(ExprCheck(instr.expr));
          prog_->AddRule(std::move(r));
          break;
        }
        case Instr::Kind::kAssertFail: {
          Rule r;
          r.head = Atom{kUnsafe, {}};
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          prog_->AddRule(std::move(r));
          Rule adv;
          adv.head = EtpAtom(edge.to, IdentityRv(), IdentityView());
          adv.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          prog_->AddRule(std::move(adv));
          break;
        }
        case Instr::Kind::kAssign: {
          const dl::VarSym out = Scratch();
          std::vector<Term> rv = IdentityRv();
          rv[instr.reg.index()] = V(out);
          Rule r;
          r.head = EtpAtom(edge.to, rv, IdentityView());
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          r.natives.push_back(ExprFn(instr.expr, out));
          prog_->AddRule(std::move(r));
          break;
        }
        case Instr::Kind::kLoad:
          AddEnvLoadRules(edge);
          break;
        case Instr::Kind::kStore:
          AddEnvStoreRules(edge);
          break;
        case Instr::Kind::kCas:
          assert(false && "env threads are CAS-free (env(nocas))");
          break;
      }
    }
  }

  void AddEnvLoadRules(const CfaEdge& edge) {
    const Instr& instr = edge.instr;
    const std::size_t x = instr.var.index();
    const std::size_t wx = WordOf(x);
    // The thread's view words start at v0. Scratch variables: message
    // value D, message view words U_0..U_{W-1}, joined words
    // J_0..J_{W-1}, and the joined word holding x once x's timestamp is
    // fixed.
    const dl::VarSym v0 = static_cast<dl::VarSym>(m_);
    const dl::VarSym d0 = Scratch();
    const dl::VarSym u0 = d0 + 1;
    const dl::VarSym j0 = u0 + static_cast<dl::VarSym>(words_);
    const dl::VarSym fixed = j0 + static_cast<dl::VarSym>(words_);
    const Term ux = V(u0 + static_cast<dl::VarSym>(wx));
    auto msg_atom = [&](PredId pred) {
      Atom a;
      a.pred = pred;
      a.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      a.args.push_back(V(d0));
      for (std::size_t w = 0; w < words_; ++w) {
        a.args.push_back(V(u0 + static_cast<dl::VarSym>(w)));
      }
      return a;
    };
    std::vector<Term> rv = IdentityRv();
    rv[instr.reg.index()] = V(d0);

    // (a) From a dis message: timestamp check + full join.
    {
      Rule r;
      // view(x) <= msg.ts(x)
      r.natives.push_back(LeqAt(x, ViewVar(wx), ux));
      const std::vector<Term> w = Join(r, v0, u0, j0);
      r.head = EtpAtom(edge.to, rv, w);
      r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView()),
                msg_atom(kDmp)};
      prog_->AddRule(std::move(r));
    }
    // (b) From an env message, clone promoted into unfrozen gap h.
    for (int h = 0; h <= guess_.StoresOn(x); ++h) {
      if (guess_.GapFrozen(x, h)) continue;
      Rule r;
      r.natives.push_back(LeqAt(x, ViewVar(wx), TsWord(x, PlusTs(h))));
      r.natives.push_back(LeqAt(x, ux, TsWord(x, PlusTs(h))));
      std::vector<Term> w = Join(r, v0, u0, j0);
      FixComponent(r, w, x, PlusTs(h), fixed);
      r.head = EtpAtom(edge.to, rv, w);
      r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView()),
                msg_atom(kEmp)};
      prog_->AddRule(std::move(r));
    }
  }

  void AddEnvStoreRules(const CfaEdge& edge) {
    const Instr& instr = edge.instr;
    const std::size_t x = instr.var.index();
    for (int h = 0; h <= guess_.StoresOn(x); ++h) {
      if (guess_.GapFrozen(x, h)) continue;
      // emp(x, rv[reg], view[x -> h+]) :- etp(from, ...), view(x) <= h+.
      Rule msg;
      msg.natives.push_back(
          LeqAt(x, ViewVar(WordOf(x)), TsWord(x, PlusTs(h))));
      std::vector<Term> w = IdentityView();
      FixComponent(msg, w, x, PlusTs(h), Scratch());
      msg.head = Atom{kEmp, {}};
      msg.head.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      msg.head.args.push_back(RvVar(instr.reg.index()));
      msg.head.args.insert(msg.head.args.end(), w.begin(), w.end());
      msg.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};

      Rule adv;
      adv.natives = msg.natives;
      adv.head = EtpAtom(edge.to, IdentityRv(), w);
      adv.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
      prog_->AddRule(std::move(msg));
      prog_->AddRule(std::move(adv));
    }
  }

  // --- dis chains --------------------------------------------------------
  //
  // Variable layout for dis rules: 0..W-1 current view words T, then
  // scratch: message view words U (W..2W-1), joined words J (2W..3W-1)
  // and the word holding the fixed component (3W).

  void AddDisChains() {
    for (std::size_t t = 0; t < guess_.threads.size(); ++t) {
      const ThreadGuess& path = guess_.threads[t];
      const Cfa& cfa = *sys_.dis[t];
      // dtp_t_j predicates: one view each.
      std::vector<PredId> dtp(path.steps.size() + 1);
      for (std::size_t j = 0; j <= path.steps.size(); ++j) {
        dtp[j] = prog_->AddPred(StrCat("dtp", t, "_", j), words_,
                                /*view=*/true);
      }
      // Initial fact: zero view.
      {
        Atom a;
        a.pred = dtp[0];
        a.args.assign(words_, C(0));
        prog_->AddFact(std::move(a));
      }
      for (std::size_t j = 0; j < path.steps.size(); ++j) {
        AddDisStepRules(cfa, path.steps[j], dtp[j], dtp[j + 1]);
      }
    }
  }

  Atom DtpAtom(PredId pred, const std::vector<Term>& view) const {
    Atom a;
    a.pred = pred;
    a.args = view;
    return a;
  }

  std::vector<Term> DisView() const {
    std::vector<Term> vw;
    for (std::size_t w = 0; w < words_; ++w) {
      vw.push_back(V(static_cast<dl::VarSym>(w)));
    }
    return vw;
  }
  Term DisWord(std::size_t w) const { return V(static_cast<dl::VarSym>(w)); }
  dl::VarSym MsgWords() const { return static_cast<dl::VarSym>(words_); }
  dl::VarSym JoinWords() const { return static_cast<dl::VarSym>(2 * words_); }
  dl::VarSym FixedWord() const { return static_cast<dl::VarSym>(3 * words_); }

  // The dis-message atom a dis load or CAS of x reads: value `val`, view
  // words U.
  Atom DisMsgAtom(PredId pred, std::size_t x, Value val) const {
    Atom a;
    a.pred = pred;
    a.args.push_back(C(var_off_ + static_cast<Sym>(x)));
    a.args.push_back(C(ValSym(val)));
    for (std::size_t w = 0; w < words_; ++w) {
      a.args.push_back(V(MsgWords() + static_cast<dl::VarSym>(w)));
    }
    return a;
  }

  // Pins the message's timestamp on x to `ts` (two checks), and checks
  // that the thread's is at most `ts`.
  void PinRead(Rule& r, std::size_t x, int ts) const {
    const Term ux = V(MsgWords() + static_cast<dl::VarSym>(WordOf(x)));
    r.natives.push_back(LeqAt(x, ux, TsWord(x, ts)));
    r.natives.push_back(LeqAt(x, TsWord(x, ts), ux));
    r.natives.push_back(LeqAt(x, DisWord(WordOf(x)), TsWord(x, ts)));
  }

  // Checks that both the message's and the thread's timestamps on x are
  // at most `ts`.
  void BoundRead(Rule& r, std::size_t x, int ts) const {
    const Term ux = V(MsgWords() + static_cast<dl::VarSym>(WordOf(x)));
    r.natives.push_back(LeqAt(x, DisWord(WordOf(x)), TsWord(x, ts)));
    r.natives.push_back(LeqAt(x, ux, TsWord(x, ts)));
  }

  void AddDisStepRules(const Cfa& cfa, const GuessStep& step, PredId from,
                       PredId to) {
    const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
    switch (instr.kind) {
      case Instr::Kind::kNop:
      case Instr::Kind::kAssume:  // pre-validated on the concrete path
      case Instr::Kind::kAssign: {
        Rule r;
        r.head = DtpAtom(to, DisView());
        r.body = {DtpAtom(from, DisView())};
        prog_->AddRule(std::move(r));
        break;
      }
      case Instr::Kind::kAssertFail: {
        Rule v;
        v.head = Atom{kUnsafe, {}};
        v.body = {DtpAtom(from, DisView())};
        prog_->AddRule(std::move(v));
        Rule adv;
        adv.head = DtpAtom(to, DisView());
        adv.body = {DtpAtom(from, DisView())};
        prog_->AddRule(std::move(adv));
        break;
      }
      case Instr::Kind::kLoad:
        AddDisLoadRules(instr, step, from, to);
        break;
      case Instr::Kind::kStore:
        AddDisWriteRules(instr, step, from, to, /*is_cas=*/false);
        break;
      case Instr::Kind::kCas:
        AddDisWriteRules(instr, step, from, to, /*is_cas=*/true);
        break;
    }
  }

  void AddDisLoadRules(const Instr& instr, const GuessStep& step,
                       PredId from, PredId to) {
    const std::size_t x = instr.var.index();
    if (!step.read_from_env) {
      // Pinned dis message at position p.
      Rule r;
      PinRead(r, x, DisTs(step.read_dis_pos));
      r.head = DtpAtom(to, Join(r, 0, MsgWords(), JoinWords()));
      r.body = {DtpAtom(from, DisView()),
                DisMsgAtom(kDmp, x, step.read_value)};
      prog_->AddRule(std::move(r));
      return;
    }
    // From an env message: one rule per unfrozen promotion gap.
    for (int h = 0; h <= guess_.StoresOn(x); ++h) {
      if (guess_.GapFrozen(x, h)) continue;
      Rule r;
      BoundRead(r, x, PlusTs(h));
      std::vector<Term> w = Join(r, 0, MsgWords(), JoinWords());
      FixComponent(r, w, x, PlusTs(h), FixedWord());
      r.head = DtpAtom(to, w);
      r.body = {DtpAtom(from, DisView()),
                DisMsgAtom(kEmp, x, step.read_value)};
      prog_->AddRule(std::move(r));
    }
  }

  // Store or CAS at guessed position p.
  void AddDisWriteRules(const Instr& instr, const GuessStep& step,
                        PredId from, PredId to, bool is_cas) {
    const std::size_t x = instr.var.index();
    const int p = step.store_pos;
    assert(p >= 1);
    const Value stored = StoredValue(instr, step);

    // Assembles the common body + joined view; for plain stores there is
    // no read, so the "join" is the thread view itself.
    auto build = [&](bool as_msg) {
      Rule r;
      r.body = {DtpAtom(from, DisView())};
      std::vector<Term> w;
      if (is_cas) {
        r.body.push_back(DisMsgAtom(step.read_from_env ? kEmp : kDmp, x,
                                    step.read_value));
        if (step.read_from_env) {
          // Clone sits at the top of gap p-1, directly below the store.
          BoundRead(r, x, PlusTs(p - 1));
        } else {
          PinRead(r, x, DisTs(p - 1));
        }
        w = Join(r, 0, MsgWords(), JoinWords());
      } else {
        // Plain store into gap p-1.
        r.natives.push_back(
            LeqAt(x, DisWord(WordOf(x)), TsWord(x, PlusTs(p - 1))));
        w = DisView();
      }
      FixComponent(r, w, x, DisTs(p), FixedWord());
      if (as_msg) {
        Atom head;
        head.pred = kDmp;
        head.args.push_back(C(var_off_ + static_cast<Sym>(x)));
        head.args.push_back(C(ValSym(stored)));
        head.args.insert(head.args.end(), w.begin(), w.end());
        r.head = std::move(head);
      } else {
        r.head = DtpAtom(to, w);
      }
      return r;
    };
    prog_->AddRule(build(/*as_msg=*/true));
    prog_->AddRule(build(/*as_msg=*/false));
  }

  void AddGoalRules() {
    if (!options_.goal_message.has_value()) return;
    const auto [gx, gv] = *options_.goal_message;
    for (PredId pred : {kEmp, kDmp}) {
      Rule r;
      r.head = Atom{kUnsafe, {}};
      Atom msg;
      msg.pred = pred;
      msg.args.push_back(C(VarSymOf(gx)));
      msg.args.push_back(C(ValSym(gv)));
      for (std::size_t w = 0; w < words_; ++w) {
        msg.args.push_back(V(static_cast<dl::VarSym>(w)));
      }
      r.body = {std::move(msg)};
      prog_->AddRule(std::move(r));
    }
  }

  const SimplSystem& sys_;
  const DisGuess& guess_;
  const MakePOptions& options_;
  dl::Program* prog_;
  std::size_t k_ = 0;  // |Var|
  std::size_t m_ = 0;  // env registers
  int max_ts_ = 1;
  dl::ViewLayout layout_;
  std::size_t words_ = 0;  // view words
  Sym val_off_ = 0;
  Sym node_off_ = 0;
  Sym var_off_ = 0;
};

}  // namespace

MakePEncoder::MakePEncoder(const SimplSystem& sys,
                           const MakePOptions& options)
    : sys_(sys), options_(options) {
  // Dead env edges (unreachable source or constantly-false guard) would
  // generate rules that can never fire; skip them so the emitted program
  // stays small even when the caller did not run the verifier pre-pass.
  edge_dead_ = AnalyzeReachability(*sys.env).edge_dead;
  env_stores_.assign(sys.num_vars, false);
  const std::vector<CfaEdge>& edges = sys.env->edges();
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    if (edge_dead_[ei]) continue;
    const Instr& instr = edges[ei].instr;
    if (instr.kind == Instr::Kind::kStore) {
      env_stores_[instr.var.index()] = true;
    }
    if (instr.kind == Instr::Kind::kAssertFail) env_asserts_ = true;
  }
}

bool MakePEncoder::MayDerive(const DisGuess& guess, std::string* key) const {
  // unsafe() :- etp(...) for a live env assert; unsafe() :- dmp(x, d_init,
  // ...) matches the init fact; unsafe() :- emp(x, d, ...) matches an env
  // store's head, whose value is a variable.
  const std::optional<std::pair<VarId, Value>>& goal = options_.goal_message;
  bool derives = env_asserts_ ||
                 (goal.has_value() && (goal->second == kInitValue ||
                                       env_stores_[goal->first.index()]));
  // The least fixpoint of the dtp chains: a pass over the threads moves
  // each as far as the messages written so far feed its reads, until a
  // pass writes nothing new. It runs to completion even once the goal is
  // known to be derivable, since the key needs every blocked step.
  const std::size_t dom = static_cast<std::size_t>(sys_.dom);
  written_.assign(sys_.num_vars * dom, false);
  passed_.assign(guess.threads.size(), 0);
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t t = 0; t < guess.threads.size(); ++t) {
      const std::vector<GuessStep>& steps = guess.threads[t].steps;
      const Cfa& cfa = *sys_.dis[t];
      for (std::size_t& j = passed_[t]; j < steps.size(); ++j) {
        const GuessStep& step = steps[j];
        const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
        if (instr.kind == Instr::Kind::kAssertFail) {
          derives = true;
          continue;
        }
        const bool reads = instr.kind == Instr::Kind::kLoad ||
                           instr.kind == Instr::Kind::kCas;
        const bool writes = Writes(instr.kind);
        if (!reads && !writes) continue;
        const std::size_t x = instr.var.index();
        if (reads) {
          const bool fed =
              step.read_from_env
                  ? env_stores_[x]
                  : step.read_value == kInitValue ||
                        written_[x * dom +
                                 static_cast<std::size_t>(step.read_value)];
          if (!fed) break;
        }
        if (writes) {
          const Value stored = StoredValue(instr, step);
          if (goal.has_value() && goal->first.index() == x &&
              goal->second == stored) {
            derives = true;
          }
          const std::size_t w = x * dom + static_cast<std::size_t>(stored);
          if (!written_[w]) {
            written_[w] = true;
            grew = true;
          }
        }
      }
    }
  }
  if (derives) {
    DemandCut(guess);
    key->clear();
    AppendClassKey(guess, key);
  }
  return derives;
}

void MakePEncoder::DemandCut(const DisGuess& guess) const {
  const std::size_t k = sys_.num_vars;
  const std::size_t dom = static_cast<std::size_t>(sys_.dom);
  // What the goal rules demand: unsafe() :- emp(gx, gv, ...) the emp tag
  // gx; unsafe() :- dmp(gx, gv, ...) survives only when the init fact or
  // an unblocked dis step writes (gx, gv), and then demands the dmp tag
  // gx and the value gv. A goal value outside the domain matches neither
  // and never indexes the value table.
  const std::optional<std::pair<VarId, Value>>& goal = options_.goal_message;
  bool goal_dmp = false;
  std::size_t gx = 0;
  std::size_t gv = 0;
  if (goal.has_value()) {
    gx = goal->first.index();
    if (goal->second >= 0 && goal->second < sys_.dom) {
      gv = static_cast<std::size_t>(goal->second);
      goal_dmp = goal->second == kInitValue || written_[gx * dom + gv];
    }
  }
  // Moves each cut down to one past the last step below it that asserts
  // or writes a demanded dmp message; true if some cut moved.
  bool any_value = true;  // the dmp value position is demanded as ⊤
  const auto shrink = [&] {
    bool moved = false;
    for (std::size_t t = 0; t < guess.threads.size(); ++t) {
      const std::vector<GuessStep>& steps = guess.threads[t].steps;
      const Cfa& cfa = *sys_.dis[t];
      std::size_t cut = cut_[t];
      for (; cut > 0; --cut) {
        const GuessStep& step = steps[cut - 1];
        const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
        if (instr.kind == Instr::Kind::kAssertFail) break;
        if (!Writes(instr.kind)) continue;
        const Value stored = StoredValue(instr, step);
        if (dmp_tags_[instr.var.index()] &&
            (any_value || dmp_vals_[static_cast<std::size_t>(stored)])) {
          break;
        }
      }
      moved |= cut != cut_[t];
      cut_[t] = cut;
    }
    return moved;
  };
  // The greatest fixpoint, from every set full and each cut at the
  // blocked step: the first shrink stops at the last write or assert.
  cut_.assign(passed_.begin(), passed_.end());
  dmp_tags_.assign(k, true);
  shrink();
  do {
    // What the rules that can survive demand: the goal rules, the reads
    // of the dis steps below the cuts and the env's loads.
    emp_outside_.assign(k, false);
    dmp_tags_.assign(k, false);
    dmp_vals_.assign(dom, false);
    if (goal.has_value()) emp_outside_[gx] = true;
    if (goal_dmp) {
      dmp_tags_[gx] = true;
      dmp_vals_[gv] = true;
    }
    for (std::size_t t = 0; t < guess.threads.size(); ++t) {
      const std::vector<GuessStep>& steps = guess.threads[t].steps;
      const Cfa& cfa = *sys_.dis[t];
      for (std::size_t j = 0; j < cut_[t]; ++j) {
        const GuessStep& step = steps[j];
        const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
        if (instr.kind != Instr::Kind::kLoad &&
            instr.kind != Instr::Kind::kCas) {
          continue;
        }
        const std::size_t x = instr.var.index();
        if (step.read_from_env) {
          emp_outside_[x] = true;
        } else {
          dmp_tags_[x] = true;
          dmp_vals_[static_cast<std::size_t>(step.read_value)] = true;
        }
      }
    }
    // An env load reads dmp(x, D, ...) with D a variable.
    const std::vector<bool>& env_loads = EnvLoads(emp_outside_);
    any_value = false;
    for (std::size_t x = 0; x < k; ++x) {
      if (!env_loads[x]) continue;
      dmp_tags_[x] = true;
      any_value = true;
    }
  } while (shrink());
}

const std::vector<bool>& MakePEncoder::EnvLoads(
    const std::vector<bool>& emp_outside) const {
  const auto [it, inserted] = env_loads_.try_emplace(emp_outside);
  std::vector<bool>& loads = it->second;
  if (!inserted) return loads;
  // The greatest fixpoint of pass 3 on the live env rules, from every
  // node and emp tag demanded. etp(to, ...) heads are demanded by node,
  // emp(x, R, ...) heads by tag; productivity is ignored, so this
  // demands at least what pass 3 does. (An emp tag matters only for a
  // variable the env stores, and only those have emp heads.)
  const Cfa& cfa = *sys_.env;
  const std::vector<CfaEdge>& edges = cfa.edges();
  std::vector<bool> nodes(cfa.num_nodes(), true);
  std::vector<bool> emp(sys_.num_vars, true);
  for (bool shrunk = true; shrunk;) {
    std::vector<bool> next_nodes(cfa.num_nodes(), false);
    std::vector<bool> next_emp = emp_outside;
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      if (edge_dead_[ei]) continue;
      const CfaEdge& edge = edges[ei];
      const Instr& instr = edge.instr;
      // Whether a rule of the edge survives, which demands its source.
      bool live = nodes[edge.to.index()];
      switch (instr.kind) {
        case Instr::Kind::kAssertFail:
          live = true;  // unsafe() :- etp(from, ...)
          break;
        case Instr::Kind::kLoad:
          if (live) next_emp[instr.var.index()] = true;
          break;
        case Instr::Kind::kStore:
          live = live || emp[instr.var.index()];
          break;
        default:
          break;
      }
      if (live) next_nodes[edge.from.index()] = true;
    }
    shrunk = next_nodes != nodes || next_emp != emp;
    nodes.swap(next_nodes);
    emp.swap(next_emp);
  }
  loads.assign(sys_.num_vars, false);
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    const CfaEdge& edge = edges[ei];
    if (!edge_dead_[ei] && edge.instr.kind == Instr::Kind::kLoad &&
        nodes[edge.to.index()]) {
      loads[edge.instr.var.index()] = true;
    }
  }
  return loads;
}

void MakePEncoder::AppendClassKey(const DisGuess& guess,
                                  std::string* key) const {
  AppendProfile(guess, key);
  for (std::size_t t = 0; t < guess.threads.size(); ++t) {
    const std::vector<GuessStep>& steps = guess.threads[t].steps;
    const Cfa& cfa = *sys_.dis[t];
    auto instr_of = [&](std::size_t j) -> const Instr& {
      return cfa.Edge(EdgeId(steps[j].edge)).instr;
    };
    const std::size_t cut = cut_[t];
    AppendNumber(key, static_cast<std::int64_t>(cut));
    for (std::size_t j = 0; j < cut; ++j) {
      const GuessStep& step = steps[j];
      const Instr& instr = instr_of(j);
      const bool writes = Writes(instr.kind);
      AppendNumber(key, step.edge);
      AppendNumber(key, step.read_value);
      AppendNumber(key, step.read_from_env ? -2 : step.read_dis_pos);
      AppendNumber(key, step.store_pos);
      AppendNumber(key, writes ? StoredValue(instr, step) : -1);
    }
  }
}

MakePResult MakePEncoder::Encode(const DisGuess& guess) {
  key_.clear();
  AppendProfile(guess, &key_);
  auto [it, inserted] = prefixes_.try_emplace(key_);
  if (inserted) {
    Builder(sys_, guess, options_, &it->second).AddPrefix(edge_dead_);
  }
  MakePResult result;
  result.prog = std::make_unique<dl::Program>(it->second);
  Builder(sys_, guess, options_, result.prog.get()).AddDisPart();
  result.goal = Atom{kUnsafe, {}};
  return result;
}

MakePResult MakeP(const SimplSystem& sys, const DisGuess& guess,
                  const MakePOptions& options) {
  return MakePEncoder(sys, options).Encode(guess);
}

}  // namespace rapar
