// Unit tests for SimplConfig: abstract timestamps, insertion/renumbering,
// gap freezing, monotone sets, equality and the dis-part hash.
#include "simplified/simpl_config.h"

#include <gtest/gtest.h>

#include "simplified/abs_time.h"

namespace rapar {
namespace {

TEST(AbsTimeTest, EncodingAndOrder) {
  // 0 < 0+ < 1 < 1+ < 2 ...
  EXPECT_LT(DisTs(0), PlusTs(0));
  EXPECT_LT(PlusTs(0), DisTs(1));
  EXPECT_LT(DisTs(1), PlusTs(1));
  EXPECT_TRUE(IsDis(DisTs(3)));
  EXPECT_TRUE(IsPlus(PlusTs(3)));
  EXPECT_EQ(GapOf(DisTs(3)), 3);
  EXPECT_EQ(GapOf(PlusTs(3)), 3);
  EXPECT_EQ(AbsTsToString(DisTs(2)), "2");
  EXPECT_EQ(AbsTsToString(PlusTs(2)), "2+");
}

class SimplConfigTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kVars = 2;
  VarId x_{0};
  VarId y_{1};
  SimplConfig cfg_{kVars, /*env_regs=*/1, /*dis_regs=*/{1}};
};

TEST_F(SimplConfigTest, InitialState) {
  EXPECT_EQ(cfg_.NumGaps(x_), 1);  // just the init message
  EXPECT_EQ(cfg_.DisMsgsOf(x_).size(), 1u);
  EXPECT_EQ(cfg_.DisMsgsOf(x_)[0].val, kInitValue);
  EXPECT_EQ(cfg_.env_cfgs().size(), 1u);
  EXPECT_EQ(cfg_.dis_threads().size(), 1u);
  EXPECT_FALSE(cfg_.GapFrozen(x_, 0));
}

TEST_F(SimplConfigTest, PlainStoreInsertsAboveGapItems) {
  // Put an env message into gap 0 of x.
  EnvMsg em;
  em.var = x_;
  em.val = 1;
  em.view = View(kVars);
  em.view.Set(x_, PlusTs(0));
  ASSERT_TRUE(cfg_.AddEnvMsg(em));

  // Plain dis store into gap 0: env item stays at 0+, store becomes dis 1.
  View base(kVars);
  AbsTs ts = cfg_.InsertDisMsg(x_, 0, 2, base, /*cas_on_dis=*/false);
  EXPECT_EQ(ts, DisTs(1));
  EXPECT_EQ(cfg_.env_msgs()[0].ts(), PlusTs(0));
  EXPECT_EQ(cfg_.DisMsgsOf(x_)[1].val, 2);
  EXPECT_FALSE(cfg_.DisMsgsOf(x_)[1].glued);
  EXPECT_FALSE(cfg_.GapFrozen(x_, 0));
}

TEST_F(SimplConfigTest, CasOnDisMovesGapItemsUpAndFreezes) {
  EnvMsg em;
  em.var = x_;
  em.val = 1;
  em.view = View(kVars);
  em.view.Set(x_, PlusTs(0));
  ASSERT_TRUE(cfg_.AddEnvMsg(em));

  // CAS load init (t = 0), store value 3.
  View base(kVars);
  AbsTs ts = cfg_.InsertDisMsg(x_, 0, 3, base, /*cas_on_dis=*/true);
  EXPECT_EQ(ts, DisTs(1));
  // Adjacency: the env item moved above the CAS store (gap 1).
  EXPECT_EQ(cfg_.env_msgs()[0].ts(), PlusTs(1));
  // Gap 0 is frozen now.
  EXPECT_TRUE(cfg_.GapFrozen(x_, 0));
  EXPECT_FALSE(cfg_.GapFrozen(x_, 1));
  EXPECT_EQ(cfg_.NextFreeGap(x_, 0), 1);
}

TEST_F(SimplConfigTest, InsertionRenumbersThreadViews) {
  // dis thread saw gap-0 env item: view(x) = 0+.
  cfg_.dis_thread(0).view.Set(x_, PlusTs(0));
  View base(kVars);
  // Insertion into gap 0 above the items: thread view must shift only for
  // the CAS variant.
  SimplConfig plain = cfg_;
  plain.InsertDisMsg(x_, 0, 1, base, /*cas_on_dis=*/false);
  EXPECT_EQ(plain.dis_thread(0).view[x_], PlusTs(0));

  SimplConfig cas = cfg_;
  cas.InsertDisMsg(x_, 0, 1, base, /*cas_on_dis=*/true);
  EXPECT_EQ(cas.dis_thread(0).view[x_], PlusTs(1));
}

TEST_F(SimplConfigTest, InsertionLeavesOtherVariablesAlone) {
  cfg_.dis_thread(0).view.Set(y_, PlusTs(0));
  View base(kVars);
  cfg_.InsertDisMsg(x_, 0, 1, base, /*cas_on_dis=*/false);
  EXPECT_EQ(cfg_.dis_thread(0).view[y_], PlusTs(0));
}

TEST_F(SimplConfigTest, MessageViewInvariant) {
  View base(kVars);
  cfg_.InsertDisMsg(x_, 0, 1, base, false);
  cfg_.InsertDisMsg(x_, 0, 2, base, false);  // insert *below* message 1
  const auto& seq = cfg_.DisMsgsOf(x_);
  ASSERT_EQ(seq.size(), 3u);
  // Values: init, then the second insert (gap 0), then the first.
  EXPECT_EQ(seq[0].val, 0);
  EXPECT_EQ(seq[1].val, 2);
  EXPECT_EQ(seq[2].val, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(seq[i].view[x_], DisTs(i));
  }
}

TEST_F(SimplConfigTest, AddEnvMsgDeduplicates) {
  EnvMsg em;
  em.var = x_;
  em.val = 1;
  em.view = View(kVars);
  em.view.Set(x_, PlusTs(0));
  EXPECT_TRUE(cfg_.AddEnvMsg(em));
  EXPECT_FALSE(cfg_.AddEnvMsg(em));
  EXPECT_EQ(cfg_.env_msgs().size(), 1u);
}

TEST_F(SimplConfigTest, AddEnvCfgDeduplicates) {
  LocalCfg c;
  c.node = NodeId(3);
  c.rv = {1};
  c.view = View(kVars);
  EXPECT_TRUE(cfg_.AddEnvCfg(c));
  EXPECT_FALSE(cfg_.AddEnvCfg(c));
}

TEST_F(SimplConfigTest, HashEqualityConsistency) {
  SimplConfig copy = cfg_;
  EXPECT_EQ(cfg_.DisPartHash(), copy.DisPartHash());
  EXPECT_TRUE(cfg_ == copy);
  View base(kVars);
  copy.InsertDisMsg(x_, 0, 1, base, false);
  EXPECT_FALSE(cfg_ == copy);
}

}  // namespace
}  // namespace rapar
