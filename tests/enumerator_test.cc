#include <gtest/gtest.h>

#include "core/enumerator.h"

namespace cqc {
namespace {

TEST(EnumeratorTest, EmptyEnumerator) {
  EmptyEnumerator e(2);
  EXPECT_EQ(e.arity(), 2);
  Tuple t;
  EXPECT_FALSE(e.Next(&t));
  EXPECT_FALSE(e.Next(&t));
}

TEST(EnumeratorTest, VectorEnumerator) {
  VectorEnumerator e(2, {{1, 2}, {3, 4}});
  Tuple t;
  ASSERT_TRUE(e.Next(&t));
  EXPECT_EQ(t, (Tuple{1, 2}));
  ASSERT_TRUE(e.Next(&t));
  EXPECT_EQ(t, (Tuple{3, 4}));
  EXPECT_FALSE(e.Next(&t));
}

TEST(EnumeratorTest, CollectAll) {
  VectorEnumerator e(1, {{1}, {2}, {3}});
  auto all = CollectAll(e);
  EXPECT_EQ(all.size(), 3u);
}

TEST(EnumeratorTest, MeasureCountsAndOps) {
  // An enumerator that burns a known number of ops per tuple.
  class OpBurner : public TupleEnumerator {
   public:
    OpBurner() : TupleEnumerator(1) {}
    size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
      size_t n = 0;
      for (; n < max_tuples; ++n) {
        if (i_ >= 5) {
          ops::Bump(100);  // expensive exhaustion detection
          break;
        }
        ops::Bump(10 * (i_ + 1));  // growing per-tuple work
        out->Append(Tuple{i_++});
      }
      return n;
    }

   private:
    Value i_ = 0;
  };
  OpBurner e;
  DelayProfile p = MeasureEnumeration(e);
  EXPECT_EQ(p.num_tuples, 5u);
  // Worst gap: max(10,20,30,40,50,100) = 100 (the exhaustion step).
  EXPECT_EQ(p.max_delay_ops, 100u);
  EXPECT_EQ(p.total_ops, 10u + 20 + 30 + 40 + 50 + 100);
}

TEST(EnumeratorTest, MeasureSinkCollects) {
  VectorEnumerator e(1, {{7}, {8}});
  std::vector<Tuple> sink;
  DelayProfile p = MeasureEnumeration(e, &sink);
  EXPECT_EQ(p.num_tuples, 2u);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0], (Tuple{7}));
}

TEST(EnumeratorTest, EmptyResultStillMeasuresExhaustion) {
  EmptyEnumerator e(1);
  DelayProfile p = MeasureEnumeration(e);
  EXPECT_EQ(p.num_tuples, 0u);
  EXPECT_GE(p.total_seconds, 0.0);
}

TEST(ProjectingEnumeratorTest, DedupsProjections) {
  auto inner = std::make_unique<VectorEnumerator>(3, std::vector<Tuple>{
      {1, 10, 5}, {1, 20, 5}, {2, 10, 6}, {1, 30, 5}, {2, 40, 7}});
  ProjectingEnumerator e(std::move(inner), {0, 2});
  auto got = CollectAll(e);
  EXPECT_EQ(got, (std::vector<Tuple>{{1, 5}, {2, 6}, {2, 7}}));
}

TEST(ProjectingEnumeratorTest, ReorderAndRepeatColumns) {
  auto inner = std::make_unique<VectorEnumerator>(
      2, std::vector<Tuple>{{1, 2}, {3, 4}});
  ProjectingEnumerator e(std::move(inner), {1, 0, 1});
  auto got = CollectAll(e);
  EXPECT_EQ(got, (std::vector<Tuple>{{2, 1, 2}, {4, 3, 4}}));
}

TEST(ProjectingEnumeratorTest, CoauthorProjectionUseCase) {
  // The paper's intro view V^bf(x,y) = R(x,p), R(y,p): project the witness
  // paper away from the full variant and deduplicate co-authors.
  auto inner = std::make_unique<VectorEnumerator>(2, std::vector<Tuple>{
      {7, 100}, {7, 101}, {8, 100}, {9, 200}});  // (y, p) pairs
  ProjectingEnumerator e(std::move(inner), {0});
  auto got = CollectAll(e);
  EXPECT_EQ(got, (std::vector<Tuple>{{7}, {8}, {9}}));
}

}  // namespace
}  // namespace cqc
