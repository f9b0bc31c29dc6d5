#include "kdb/aggregate.h"

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

Collection MakeCollection() {
  Collection collection("items");
  struct Row {
    const char* kind;
    double quality;
  };
  const Row rows[] = {{"cluster", 0.9}, {"cluster", 0.5}, {"rule", 0.7},
                      {"rule", 0.3},    {"itemset", 0.6}};
  for (const Row& row : rows) {
    Document document;
    document.Set("kind", Json(row.kind));
    document.Set("quality", Json(row.quality));
    collection.Insert(std::move(document));
  }
  // One document without the fields.
  collection.Insert(Document());
  return collection;
}

TEST(GroupCountTest, CountsPerValue) {
  Collection collection = MakeCollection();
  auto counts = GroupCount(collection, "kind");
  EXPECT_EQ(counts["\"cluster\""], 2);
  EXPECT_EQ(counts["\"rule\""], 2);
  EXPECT_EQ(counts["\"itemset\""], 1);
  EXPECT_EQ(counts["<missing>"], 1);
}

TEST(GroupCountTest, RespectsFilter) {
  Collection collection = MakeCollection();
  auto counts = GroupCount(collection, "kind",
                           Query().Where("quality", QueryOp::kGe,
                                         Json(0.6)));
  EXPECT_EQ(counts["\"cluster\""], 1);
  EXPECT_EQ(counts["\"rule\""], 1);
  EXPECT_EQ(counts["\"itemset\""], 1);
  EXPECT_EQ(counts.count("<missing>"), 0u);
}

TEST(AggregateTest, NumericStatistics) {
  Collection collection = MakeCollection();
  FieldStats stats = Aggregate(collection, "quality");
  EXPECT_EQ(stats.count, 5);
  EXPECT_NEAR(stats.sum, 3.0, 1e-12);
  EXPECT_NEAR(stats.mean, 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min, 0.3);
  EXPECT_DOUBLE_EQ(stats.max, 0.9);
}

TEST(AggregateTest, FilteredStatistics) {
  Collection collection = MakeCollection();
  FieldStats stats = Aggregate(collection, "quality",
                               Query().Eq("kind", Json("rule")));
  EXPECT_EQ(stats.count, 2);
  EXPECT_NEAR(stats.mean, 0.5, 1e-12);
}

TEST(AggregateTest, EmptyMatchGivesZeroStats) {
  Collection collection = MakeCollection();
  FieldStats stats = Aggregate(collection, "quality",
                               Query().Eq("kind", Json("ghost")));
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
