// Trace rendering: the Figure-3-style output is deterministic and
// mentions the messages with their abstract views.
#include "core/trace_render.h"

#include <gtest/gtest.h>

#include "core/benchmarks.h"
#include "core/verifier.h"

namespace rapar {
namespace {

TEST(TraceRenderTest, ProducerConsumerWitnessMentionsKeyEvents) {
  BenchmarkCase pc = ProducerConsumer(2);
  SimplExplorer ex(pc.system.simpl());
  SimplResult r = ex.Check({});
  ASSERT_TRUE(r.violation);

  TraceRenderOptions opts;
  std::string text = RenderTrace(pc.system.simpl(), r.witness, opts);
  EXPECT_NE(text.find("writes dis msg (y,1)"), std::string::npos) << text;
  EXPECT_NE(text.find("writes env msg (x,1)"), std::string::npos) << text;
  EXPECT_NE(text.find("writes env msg (x,2)"), std::string::npos) << text;
  EXPECT_NE(text.find("assertion violation"), std::string::npos) << text;
  // Abstract ⁺-timestamps appear in the views.
  EXPECT_NE(text.find("x->0+"), std::string::npos) << text;
}

TEST(TraceRenderTest, ElidingSilentStepsShortensOutput) {
  BenchmarkCase pc = ProducerConsumer(2);
  SimplExplorer ex(pc.system.simpl());
  SimplResult r = ex.Check({});
  ASSERT_TRUE(r.violation);

  TraceRenderOptions full;
  TraceRenderOptions elided;
  elided.elide_silent = true;
  const std::string a = RenderTrace(pc.system.simpl(), r.witness, full);
  const std::string b = RenderTrace(pc.system.simpl(), r.witness, elided);
  EXPECT_GE(a.size(), b.size());
  EXPECT_NE(b.find("assertion violation"), std::string::npos);
}

TEST(TraceRenderTest, RenderingIsDeterministic) {
  BenchmarkCase pc = ProducerConsumer(2);
  SimplExplorer ex(pc.system.simpl());
  SimplResult r = ex.Check({});
  ASSERT_TRUE(r.violation);
  const std::string a = RenderTrace(pc.system.simpl(), r.witness, {});
  const std::string b = RenderTrace(pc.system.simpl(), r.witness, {});
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rapar
