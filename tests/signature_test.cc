#include "src/core/signature.h"

#include <gtest/gtest.h>

namespace p3c::core {
namespace {

Interval MakeInterval(size_t attr, double lo, double hi) {
  return Interval{attr, lo, hi};
}

TEST(IntervalTest, WidthAndContains) {
  const Interval i = MakeInterval(2, 0.2, 0.5);
  EXPECT_DOUBLE_EQ(i.width(), 0.3);
  EXPECT_TRUE(i.Contains(0.2));   // closed lower
  EXPECT_TRUE(i.Contains(0.5));   // closed upper
  EXPECT_TRUE(i.Contains(0.35));
  EXPECT_FALSE(i.Contains(0.19));
  EXPECT_FALSE(i.Contains(0.51));
}

TEST(IntervalTest, Overlaps) {
  const Interval a = MakeInterval(0, 0.1, 0.3);
  EXPECT_TRUE(a.Overlaps(MakeInterval(0, 0.3, 0.5)));   // touching
  EXPECT_TRUE(a.Overlaps(MakeInterval(0, 0.0, 1.0)));
  EXPECT_FALSE(a.Overlaps(MakeInterval(0, 0.31, 0.5)));
  EXPECT_FALSE(a.Overlaps(MakeInterval(1, 0.1, 0.3)));  // other attr
}

TEST(IntervalTest, ToString) {
  EXPECT_EQ(MakeInterval(3, 0.2, 0.4).ToString(), "a3:[0.2,0.4]");
}

TEST(SignatureTest, MakeSortsByAttr) {
  Result<Signature> s = Signature::Make(
      {MakeInterval(5, 0, 1), MakeInterval(1, 0, 1), MakeInterval(3, 0, 1)});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->attrs(), (std::vector<size_t>{1, 3, 5}));
}

TEST(SignatureTest, MakeRejectsDuplicateAttr) {
  EXPECT_FALSE(
      Signature::Make({MakeInterval(1, 0, 0.5), MakeInterval(1, 0.5, 1)})
          .ok());
}

TEST(SignatureTest, FindAndHasAttr) {
  const Signature s = Signature::Make({MakeInterval(2, 0.1, 0.3),
                                       MakeInterval(7, 0.5, 0.9)})
                          .value();
  EXPECT_TRUE(s.HasAttr(2));
  EXPECT_FALSE(s.HasAttr(3));
  ASSERT_TRUE(s.Find(7).has_value());
  EXPECT_DOUBLE_EQ(s.Find(7)->lower, 0.5);
}

TEST(SignatureTest, ContainsPoint) {
  const Signature s = Signature::Make({MakeInterval(0, 0.1, 0.3),
                                       MakeInterval(2, 0.5, 0.9)})
                          .value();
  EXPECT_TRUE(s.Contains(std::vector<double>{0.2, 0.99, 0.7}));
  EXPECT_FALSE(s.Contains(std::vector<double>{0.4, 0.99, 0.7}));
  EXPECT_FALSE(s.Contains(std::vector<double>{0.2, 0.99, 0.4}));
  // Attribute beyond the point's dimensionality -> not contained.
  EXPECT_FALSE(s.Contains(std::vector<double>{0.2, 0.99}));
}

TEST(SignatureTest, VolumeFraction) {
  const Signature s = Signature::Make({MakeInterval(0, 0.0, 0.1),
                                       MakeInterval(1, 0.2, 0.4)})
                          .value();
  EXPECT_NEAR(s.VolumeFraction(), 0.02, 1e-12);
  EXPECT_DOUBLE_EQ(Signature().VolumeFraction(), 1.0);
}

TEST(SignatureTest, With) {
  const Signature s = Signature::Make({MakeInterval(0, 0, 1),
                                       MakeInterval(1, 0, 1),
                                       MakeInterval(2, 0, 1)})
                          .value();
  const Signature without =
      Signature::Make({MakeInterval(0, 0, 1), MakeInterval(2, 0, 1)}).value();
  Result<Signature> with = without.With(MakeInterval(1, 0, 1));
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(*with, s);
  EXPECT_FALSE(without.With(MakeInterval(0, 0.5, 0.6)).ok());
}

TEST(SignatureTest, OrderingAndEquality) {
  const Signature a = Signature::Single(MakeInterval(0, 0.1, 0.2));
  const Signature b = Signature::Single(MakeInterval(0, 0.1, 0.3));
  const Signature c = Signature::Single(MakeInterval(1, 0.1, 0.2));
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
}

TEST(SignatureTest, ToString) {
  const Signature s = Signature::Make({MakeInterval(1, 0.5, 0.75),
                                       MakeInterval(0, 0.0, 0.1)})
                          .value();
  EXPECT_EQ(s.ToString(), "{a0:[0,0.1], a1:[0.5,0.75]}");
}

}  // namespace
}  // namespace p3c::core
