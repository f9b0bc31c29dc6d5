#include "kdb/collection.h"

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

Document Doc(const std::string& kind, int64_t value) {
  Document document;
  document.Set("kind", Json(kind));
  document.Set("value", Json(value));
  return document;
}

TEST(CollectionTest, InsertAssignsSequentialIds) {
  Collection collection("items");
  EXPECT_EQ(collection.Insert(Doc("a", 1)), 1);
  EXPECT_EQ(collection.Insert(Doc("b", 2)), 2);
  EXPECT_EQ(collection.size(), 2u);
}

Query ById(DocumentId id) { return Query().Eq("_id", Json(id)); }

TEST(CollectionTest, FindById) {
  Collection collection("items");
  DocumentId id = collection.Insert(Doc("a", 7));
  auto found = collection.Find(ById(id));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].Get("value")->AsInt(), 7);
  EXPECT_TRUE(collection.Find(ById(999)).empty());
}

TEST(CollectionTest, FindWithFilter) {
  Collection collection("items");
  collection.Insert(Doc("a", 1));
  collection.Insert(Doc("b", 2));
  collection.Insert(Doc("a", 3));
  auto matches = collection.Find(Query().Eq("kind", Json("a")));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].Get("value")->AsInt(), 1);
  EXPECT_EQ(matches[1].Get("value")->AsInt(), 3);
}

TEST(CollectionTest, FindRespectsLimit) {
  Collection collection("items");
  for (int64_t i = 0; i < 10; ++i) collection.Insert(Doc("x", i));
  EXPECT_EQ(collection.Find(Query(), 3).size(), 3u);
  EXPECT_EQ(collection.Find(Query()).size(), 10u);
}

TEST(CollectionTest, FindOneAndCount) {
  Collection collection("items");
  collection.Insert(Doc("a", 1));
  collection.Insert(Doc("a", 2));
  auto first = collection.Find(Query().Eq("kind", Json("a")), 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].Get("value")->AsInt(), 1);
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("a"))).size(), 2u);
  EXPECT_TRUE(collection.Find(Query().Eq("kind", Json("z")), 1).empty());
}

TEST(CollectionTest, UpdateByIdMergesFields) {
  Collection collection("items");
  DocumentId id = collection.Insert(Doc("a", 1));
  Json::Object update;
  update["value"] = Json(int64_t{10});
  update["extra"] = Json("new");
  update["_id"] = Json(int64_t{999});  // Must be ignored.
  ASSERT_TRUE(collection.UpdateById(id, Json(std::move(update))).ok());
  auto found = collection.Find(ById(id));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].Get("value")->AsInt(), 10);
  EXPECT_EQ(found[0].Get("extra")->AsString(), "new");
  EXPECT_EQ(found[0].Get("kind")->AsString(), "a");  // Untouched.
  EXPECT_EQ(found[0].id(), id);                      // Id immutable.
}

TEST(CollectionTest, UpdateErrors) {
  Collection collection("items");
  DocumentId id = collection.Insert(Doc("a", 1));
  EXPECT_FALSE(collection.UpdateById(999, Json(Json::Object{})).ok());
  EXPECT_FALSE(collection.UpdateById(id, Json(int64_t{1})).ok());
}

TEST(CollectionTest, IndexAcceleratedEqualityFind) {
  Collection collection("items");
  collection.CreateIndex("kind");
  for (int64_t i = 0; i < 100; ++i) {
    collection.Insert(Doc(i % 2 == 0 ? "even" : "odd", i));
  }
  auto evens = collection.Find(Query().Eq("kind", Json("even")));
  EXPECT_EQ(evens.size(), 50u);
  // Index + extra condition.
  auto filtered = collection.Find(Query()
                                      .Eq("kind", Json("even"))
                                      .Where("value", QueryOp::kLt,
                                             Json(int64_t{10})));
  EXPECT_EQ(filtered.size(), 5u);
}

TEST(CollectionTest, IndexCreatedAfterInsertsStillWorks) {
  Collection collection("items");
  for (int64_t i = 0; i < 20; ++i) collection.Insert(Doc("k", i));
  collection.CreateIndex("value");
  auto matches = collection.Find(Query().Eq("value", Json(int64_t{7})));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].Get("value")->AsInt(), 7);
}

TEST(CollectionTest, IndexSurvivesUpdates) {
  Collection collection("items");
  collection.CreateIndex("kind");
  DocumentId id = collection.Insert(Doc("a", 1));
  collection.Insert(Doc("a", 2));
  Json::Object update;
  update["kind"] = Json("b");
  ASSERT_TRUE(collection.UpdateById(id, Json(std::move(update))).ok());
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("a"))).size(), 1u);
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("b"))).size(), 1u);
}

TEST(CollectionTest, IndexMissBypassesScan) {
  Collection collection("items");
  collection.CreateIndex("kind");
  collection.Insert(Doc("a", 1));
  EXPECT_TRUE(collection.Find(Query().Eq("kind", Json("zzz"))).empty());
}

TEST(CollectionTest, RestorePreservesIdsAndAdvancesCounter) {
  Collection collection("items");
  auto document = Document::Parse(R"({"_id": 10, "kind": "restored"})");
  ASSERT_TRUE(document.ok());
  ASSERT_TRUE(collection.Restore(document.value()).ok());
  EXPECT_EQ(collection.Find(ById(10)).size(), 1u);
  EXPECT_EQ(collection.Insert(Doc("next", 1)), 11);
}

TEST(CollectionTest, RestoreRejectsDuplicatesAndBadIds) {
  Collection collection("items");
  auto document = Document::Parse(R"({"_id": 3})");
  ASSERT_TRUE(document.ok());
  ASSERT_TRUE(collection.Restore(document.value()).ok());
  EXPECT_FALSE(collection.Restore(document.value()).ok());
  auto no_id = Document::Parse(R"({"x": 1})");
  ASSERT_TRUE(no_id.ok());
  EXPECT_FALSE(collection.Restore(no_id.value()).ok());
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
