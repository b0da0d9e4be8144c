#include "simplified/simpl_config.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/strings.h"

namespace rapar {

SimplConfig::SimplConfig(std::size_t num_vars, std::size_t env_regs,
                         const std::vector<std::size_t>& dis_regs) {
  dis_mem_.resize(num_vars);
  for (auto& seq : dis_mem_) {
    DisMsg init;
    init.val = kInitValue;
    init.view = View(num_vars);
    seq.push_back(std::move(init));
  }
  LocalCfg env_init;
  env_init.node = NodeId(0);
  env_init.rv.assign(env_regs, kInitValue);
  env_init.view = View(num_vars);
  env_cfgs_.push_back(std::move(env_init));
  for (std::size_t regs : dis_regs) {
    LocalCfg d;
    d.node = NodeId(0);
    d.rv.assign(regs, kInitValue);
    d.view = View(num_vars);
    dis_threads_.push_back(std::move(d));
  }
}

bool SimplConfig::GapFrozen(VarId x, int gap) const {
  const auto& seq = dis_mem_[x.index()];
  const std::size_t above = static_cast<std::size_t>(gap) + 1;
  return above < seq.size() && seq[above].glued;
}

int SimplConfig::NextFreeGap(VarId x, int from) const {
  int gap = from;
  while (GapFrozen(x, gap)) ++gap;
  assert(gap < NumGaps(x));
  return gap;
}

bool SimplConfig::HasGeneratedMessage(VarId x, Value v) const {
  const auto& seq = dis_mem_[x.index()];
  return std::any_of(seq.begin() + 1, seq.end(),
                     [&](const DisMsg& m) { return m.val == v; }) ||
         std::any_of(env_msgs_.begin(), env_msgs_.end(), [&](const EnvMsg& m) {
           return m.var == x && m.val == v;
         });
}

void SimplConfig::ShiftFrom(VarId x, AbsTs threshold) {
  const std::size_t xi = x.index();
  for (auto& seq : dis_mem_) {
    for (DisMsg& m : seq) {
      if (m.view.Slot(xi) >= threshold) m.view.Slot(xi) += 2;
    }
  }
  for (EnvMsg& m : env_msgs_) {
    if (m.view.Slot(xi) >= threshold) m.view.Slot(xi) += 2;
  }
  for (LocalCfg& c : env_cfgs_) {
    if (c.view.Slot(xi) >= threshold) c.view.Slot(xi) += 2;
  }
  for (LocalCfg& t : dis_threads_) {
    if (t.view.Slot(xi) >= threshold) t.view.Slot(xi) += 2;
  }
}

AbsTs SimplConfig::InsertDisMsg(VarId x, int gap, Value val,
                                const View& base_view, bool cas_on_dis) {
  assert(gap >= 0 && gap < NumGaps(x));
  assert(!GapFrozen(x, gap));
  const std::size_t xi = x.index();
  const AbsTs new_ts = DisTs(gap + 1);
  // Plain store: the new message sits above the gap's env items, so only
  // components strictly above the gap shift. CAS on the dis message below:
  // adjacency pushes the gap's env items above the new message too.
  const AbsTs threshold = cas_on_dis ? PlusTs(gap) : DisTs(gap + 1);
  View msg_view = base_view;  // capture before renumbering
  ShiftFrom(x, threshold);
  if (msg_view.Slot(xi) >= threshold) msg_view.Slot(xi) += 2;
  msg_view.Set(x, new_ts);

  DisMsg msg;
  msg.val = val;
  msg.view = std::move(msg_view);
  msg.glued = cas_on_dis;
  auto& seq = dis_mem_[xi];
  seq.insert(seq.begin() + (gap + 1), std::move(msg));

  // Invariant: dis message i on x has view(x) == 2i.
  for (std::size_t i = 0; i < seq.size(); ++i) {
    assert(seq[i].view[x] == DisTs(static_cast<int>(i)));
  }
  return new_ts;
}

bool SimplConfig::AddEnvMsg(EnvMsg msg) {
  auto it = std::lower_bound(env_msgs_.begin(), env_msgs_.end(), msg);
  if (it != env_msgs_.end() && *it == msg) return false;
  env_msgs_.insert(it, std::move(msg));
  return true;
}

bool SimplConfig::AddEnvCfg(LocalCfg cfg) {
  auto it = std::lower_bound(env_cfgs_.begin(), env_cfgs_.end(), cfg);
  if (it != env_cfgs_.end() && *it == cfg) return false;
  env_cfgs_.insert(it, std::move(cfg));
  return true;
}

std::size_t SimplConfig::DisPartHash() const {
  std::size_t seed = 0x5eed5eed;
  for (const auto& seq : dis_mem_) {
    HashCombine(seed, seq.size());
    for (const DisMsg& m : seq) {
      HashCombine(seed, static_cast<std::size_t>(m.val));
      HashCombine(seed, m.view.Hash());
      HashCombine(seed, m.glued ? 1u : 0u);
    }
  }
  for (const LocalCfg& t : dis_threads_) {
    HashCombine(seed, t.node.value());
    HashCombine(seed, HashRange(t.rv));
    HashCombine(seed, t.view.Hash());
  }
  return seed;
}

namespace {

std::string AbsViewToString(const View& view, const VarTable& vars) {
  std::string out = "{";
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(vars.Name(VarId(static_cast<std::uint32_t>(i))), "->",
                  AbsTsToString(view.Slot(i)));
  }
  return out + "}";
}

std::string RvToString(const std::vector<Value>& rv) {
  std::string out = "[";
  for (std::size_t i = 0; i < rv.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(rv[i]);
  }
  return out + "]";
}

}  // namespace

std::string SimplConfig::ToString(const VarTable& vars) const {
  std::string out = "dis memory:\n";
  for (std::size_t xi = 0; xi < dis_mem_.size(); ++xi) {
    out += StrCat("  ", vars.Name(VarId(static_cast<std::uint32_t>(xi))),
                  ": ");
    for (const DisMsg& m : dis_mem_[xi]) {
      out += StrCat("[", AbsTsToString(m.view.Slot(xi)),
                    m.glued ? "g" : "", ": ", m.val, " ",
                    AbsViewToString(m.view, vars), "] ");
    }
    out += "\n";
  }
  out += "env messages:\n";
  for (const EnvMsg& m : env_msgs_) {
    out += StrCat("  (", vars.Name(m.var), ", ", m.val, ", ",
                  AbsViewToString(m.view, vars), ")\n");
  }
  out += "env configs:\n";
  for (const LocalCfg& c : env_cfgs_) {
    out += StrCat("  n", c.node.value(), " rv=", RvToString(c.rv),
                  " vw=", AbsViewToString(c.view, vars), "\n");
  }
  out += "dis threads:\n";
  for (std::size_t i = 0; i < dis_threads_.size(); ++i) {
    const LocalCfg& t = dis_threads_[i];
    out += StrCat("  d", i, ": n", t.node.value(), " rv=", RvToString(t.rv),
                  " vw=", AbsViewToString(t.view, vars), "\n");
  }
  return out;
}

}  // namespace rapar
