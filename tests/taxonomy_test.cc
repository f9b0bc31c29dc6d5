#include "dataset/taxonomy.h"

#include <gtest/gtest.h>

namespace adahealth {
namespace dataset {
namespace {

Taxonomy MakeTaxonomy() {
  // 5 leaves, 3 groups, 2 categories.
  auto taxonomy = Taxonomy::Build(
      /*leaf_group=*/{0, 0, 1, 2, 2},
      /*group_names=*/{"glycemic", "eye", "cardio"},
      /*group_category=*/{0, 1, 1},
      /*category_names=*/{"laboratory", "specialist"});
  EXPECT_TRUE(taxonomy.ok());
  return std::move(taxonomy).value();
}

TEST(TaxonomyTest, Sizes) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.num_leaves(), 5u);
  EXPECT_EQ(taxonomy.num_groups(), 3u);
  EXPECT_EQ(taxonomy.num_categories(), 2u);
  EXPECT_EQ(taxonomy.num_nodes(), 10u);
}

TEST(TaxonomyTest, GroupAndCategoryLookups) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.GroupOfLeaf(1), 0);
  EXPECT_EQ(taxonomy.GroupOfLeaf(3), 2);
  EXPECT_EQ(taxonomy.CategoryOfGroup(0), 0);
  EXPECT_EQ(taxonomy.CategoryOfLeaf(2), 1);
  EXPECT_EQ(taxonomy.GroupName(1), "eye");
  EXPECT_EQ(taxonomy.CategoryName(0), "laboratory");
}

TEST(TaxonomyTest, GlobalNodeIds) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.GroupNode(0), 5);
  EXPECT_EQ(taxonomy.GroupNode(2), 7);
  EXPECT_EQ(taxonomy.CategoryNode(0), 8);
  EXPECT_EQ(taxonomy.CategoryNode(1), 9);
}

TEST(TaxonomyTest, Levels) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.LevelOf(0), 0);
  EXPECT_EQ(taxonomy.LevelOf(4), 0);
  EXPECT_EQ(taxonomy.LevelOf(5), 1);
  EXPECT_EQ(taxonomy.LevelOf(7), 1);
  EXPECT_EQ(taxonomy.LevelOf(8), 2);
  EXPECT_EQ(taxonomy.LevelOf(9), 2);
}

TEST(TaxonomyTest, Parents) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.GroupOfLeaf(0), 0);
  EXPECT_EQ(taxonomy.GroupOfLeaf(2), 1);
  EXPECT_EQ(taxonomy.CategoryOfGroup(1), 1);
  EXPECT_EQ(taxonomy.CategoryOfLeaf(2), taxonomy.CategoryOfGroup(1));
}

TEST(TaxonomyTest, LeavesUnder) {
  // The leaves under a node are the leaves whose parent chain
  // (leaf -> group -> category) passes through it.
  Taxonomy taxonomy = MakeTaxonomy();
  auto leaves_under = [&](TaxonomyNodeId node) {
    std::vector<ExamTypeId> leaves;
    for (size_t e = 0; e < taxonomy.num_leaves(); ++e) {
      const ExamTypeId leaf = static_cast<ExamTypeId>(e);
      if (node == leaf ||
          node == taxonomy.GroupNode(taxonomy.GroupOfLeaf(leaf)) ||
          node == taxonomy.CategoryNode(taxonomy.CategoryOfLeaf(leaf))) {
        leaves.push_back(leaf);
      }
    }
    return leaves;
  };
  EXPECT_EQ(leaves_under(3), (std::vector<ExamTypeId>{3}));
  EXPECT_EQ(leaves_under(taxonomy.GroupNode(0)),
            (std::vector<ExamTypeId>{0, 1}));
  EXPECT_EQ(leaves_under(taxonomy.CategoryNode(1)),
            (std::vector<ExamTypeId>{2, 3, 4}));
}

TEST(TaxonomyTest, BuildRejectsBadInput) {
  EXPECT_FALSE(Taxonomy::Build({}, {"g"}, {0}, {"c"}).ok());
  EXPECT_FALSE(Taxonomy::Build({0}, {}, {}, {"c"}).ok());
  EXPECT_FALSE(Taxonomy::Build({1}, {"g"}, {0}, {"c"}).ok());   // Leaf oob.
  EXPECT_FALSE(Taxonomy::Build({0}, {"g"}, {1}, {"c"}).ok());   // Group oob.
  EXPECT_FALSE(Taxonomy::Build({0}, {"g"}, {0, 0}, {"c"}).ok());  // Sizes.
}

}  // namespace
}  // namespace dataset
}  // namespace adahealth
