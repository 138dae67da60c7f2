// Tests of the benchmark's helpers: the percentile rule, span self time and
// the reference model of the view.
#include <gtest/gtest.h>

#include "support.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(Percentile(OneTo(100), 0.9), 90.0);
  EXPECT_FALSE(Percentile(OneTo(99), 0.9).has_value());  // < 100 samples
  EXPECT_EQ(Percentile(OneTo(20), 0.5), 10.0);
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileRule, HighestSupportedPercentile) {
  EXPECT_FALSE(HighestSupportedPercentile(10).has_value());
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(250), 0.96);
  for (int n : {11, 57, 100, 333, 1000, 4321}) {
    const std::optional<double> q = HighestSupportedPercentile(n);
    ASSERT_TRUE(q.has_value()) << n;
    EXPECT_TRUE(Percentile(OneTo(n), *q).has_value()) << n;
  }
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  // Parent [0, 100]; children overlap each other and one runs past the
  // parent's end: covered = [10, 50] + [90, 100] = 50.
  std::vector<Span> spans = {
      {"op.point", 7, -1, 0, 100},  {"sql.parse", 7, 0, 10, 30},
      {"core.select", 7, 0, 20, 50}, {"core.lookup", 7, 0, 90, 120},
      {"inner", 7, 2, 25, 35},
  };
  EXPECT_EQ(SelfTimesNs(spans), (std::vector<int64_t>{50, 20, 20, 30, 10}));
}

TEST(SpanSelfTime, TracerNestsOpenSpans) {
  Tracer tracer(true);
  {
    Tracer::Scope op(&tracer, "op.slice", 3);
    { Tracer::Scope a(&tracer, "sql.parse", 3); }
    { Tracer::Scope b(&tracer, "core.select", 3); }
  }
  { Tracer::Scope m(&tracer, "maint.txn", 4); }
  const std::vector<Span>& s = tracer.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[3].trace_id, 4u);
  EXPECT_EQ(s[1].trace_id, 3u);
  EXPECT_EQ(s[2].trace_id, 3u);
  for (const Span& sp : s) EXPECT_GE(sp.end_ns, sp.start_ns);
  const std::vector<int64_t> st = SelfTimesNs(s);
  EXPECT_GE(st[0], 0);
  EXPECT_LE(st[0], s[0].end_ns - s[0].start_ns);

  Tracer off(false);
  { Tracer::Scope x(&off, "op.point", 1); }
  EXPECT_TRUE(off.spans().empty());
}

wvm::Row Dims(const char* city, const char* state, const char* line,
              int day) {
  return {wvm::Value::String(city), wvm::Value::String(state),
          wvm::Value::String(line), wvm::Value::Date(1996, 10, day)};
}

using Rollup = std::map<std::string, StateAgg>;
using Slice = std::map<std::string, int64_t>;

TEST(ViewModel, ThreeDaysWithARetraction) {
  const wvm::Row a = Dims("San Jose", "CA", "golf equip", 1);
  const wvm::Row b = Dims("City_007", "NY", "skis", 1);
  const wvm::Row c = Dims("San Jose", "CA", "tents", 2);

  ViewModel m(5);
  m.Stage({{a, 100, false}, {a, 50, false}, {b, 70, false}});
  ASSERT_TRUE(m.Commit(6));  // day 1: a = 150/2, b = 70/1
  m.Stage({{c, 30, false}, {a, 50, true}});
  ASSERT_TRUE(m.Commit(7));  // day 2: a = 100/1 (retraction), c = 30/1
  m.Stage({{b, 70, true}, {a, 5, false}});
  ASSERT_TRUE(m.Commit(8));  // day 3: b retracted away, a = 105/2

  EXPECT_EQ(m.live_groups(), 2u);
  EXPECT_EQ(m.Get(a, 8)->total, 105);
  EXPECT_EQ(m.Get(a, 8)->support, 2);
  EXPECT_FALSE(m.Get(b, 8).has_value());
  EXPECT_EQ(m.Get(c, 8)->total, 30);
  EXPECT_EQ(m.Rollup(8), (Rollup{{"CA", {135, 2}}}));
  EXPECT_EQ(m.Slice("San Jose", 8), (Slice{{"golf equip", 105}, {"tents", 30}}));
  EXPECT_TRUE(m.Slice("City_007", 8).empty());

  EXPECT_EQ(m.Get(a, 7)->total, 100);
  EXPECT_EQ(m.Get(a, 7)->support, 1);
  EXPECT_EQ(m.Get(b, 7)->total, 70);
  EXPECT_EQ(m.Rollup(7), (Rollup{{"CA", {130, 2}}, {"NY", {70, 1}}}));
  EXPECT_EQ(m.Slice("San Jose", 7), (Slice{{"golf equip", 100}, {"tents", 30}}));
  EXPECT_EQ(m.Slice("City_007", 7), (Slice{{"skis", 70}}));

  EXPECT_EQ(m.Get(a, 6)->total, 150);
  EXPECT_EQ(m.Get(a, 6)->support, 2);
  EXPECT_FALSE(m.Get(c, 6).has_value());
  EXPECT_EQ(m.Rollup(6), (Rollup{{"CA", {150, 1}}, {"NY", {70, 1}}}));
}

TEST(ViewModel, RetractingAnAbsentGroupUnderflows) {
  ViewModel bad;
  bad.Stage({{Dims("San Jose", "CA", "golf equip", 1), 10, true}});
  EXPECT_FALSE(bad.Commit(1));
}

}  // namespace
}  // namespace perfbench
