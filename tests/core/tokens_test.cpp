// Tests for the token-space labelling.
#include "core/tokens.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dyngossip {
namespace {

TEST(TokenSpace, SingleSource) {
  const TokenSpace space = TokenSpace::single_source(3, 5);
  EXPECT_EQ(space.total_tokens(), 5u);
  EXPECT_EQ(space.num_sources(), 1u);
  EXPECT_EQ(space.source_node(0), 3u);
  EXPECT_EQ(space.count_of(0), 5u);
  for (TokenId t = 0; t < 5; ++t) EXPECT_EQ(space.source_of_token(t), 0u);
  EXPECT_EQ(space.index_of_node(3), 0u);
  EXPECT_EQ(space.index_of_node(2), kNotASource);
}

TEST(TokenSpace, ContiguousSortsByNodeId) {
  // Supplied out of order: a_1 < a_2 < ... ordering is restored.
  const TokenSpace space =
      TokenSpace::contiguous({{7, 2}, {1, 3}, {4, 1}});
  EXPECT_EQ(space.total_tokens(), 6u);
  EXPECT_EQ(space.num_sources(), 3u);
  EXPECT_EQ(space.source_node(0), 1u);
  EXPECT_EQ(space.source_node(1), 4u);
  EXPECT_EQ(space.source_node(2), 7u);
  EXPECT_EQ(space.count_of(0), 3u);
  EXPECT_EQ(space.count_of(1), 1u);
  EXPECT_EQ(space.count_of(2), 2u);
  // Dense ids are assigned in sorted-source order.
  EXPECT_EQ(space.source_of_token(0), 0u);
  EXPECT_EQ(space.source_of_token(2), 0u);
  EXPECT_EQ(space.source_of_token(3), 1u);
  EXPECT_EQ(space.source_of_token(4), 2u);
}

TEST(TokenSpace, ExplicitListsPartition) {
  const TokenSpace space(4, {{2, {1, 3}}, {5, {0, 2}}});
  EXPECT_EQ(space.num_sources(), 2u);
  EXPECT_EQ(space.source_of_token(1), 0u);
  EXPECT_EQ(space.source_of_token(0), 1u);
  const std::vector<TokenId> want{1, 3};
  EXPECT_EQ(space.tokens_of(0), want);
}

TEST(TokenSpace, IndexOfNodeCoversEveryNodeId) {
  // Sources at 2, 5, 6 and 40 (explicit lists, supplied out of order).
  const TokenSpace space(6, {{40, {5}}, {5, {1, 2}}, {2, {0}}, {6, {3, 4}}});
  const std::vector<NodeId> sources{2, 5, 6, 40};
  for (NodeId v = 0; v < 200; ++v) {
    const auto it = std::find(sources.begin(), sources.end(), v);
    const std::size_t want = it == sources.end()
                                 ? kNotASource
                                 : static_cast<std::size_t>(it - sources.begin());
    EXPECT_EQ(space.index_of_node(v), want) << "node " << v;
  }
  // Ids past the last source, up to the largest representable one.
  EXPECT_EQ(space.index_of_node(41), kNotASource);
  EXPECT_EQ(space.index_of_node(kNoNode - 1), kNotASource);
  EXPECT_EQ(space.index_of_node(kNoNode), kNotASource);
  // The node of each source maps back to its index.
  for (std::size_t i = 0; i < space.num_sources(); ++i) {
    EXPECT_EQ(space.index_of_node(space.source_node(i)), i);
  }
}

TEST(TokenSpace, IndexOfNodeOnSourceAtZero) {
  const TokenSpace space = TokenSpace::single_source(0, 3);
  EXPECT_EQ(space.index_of_node(0), 0u);
  for (NodeId v = 1; v < 10; ++v) EXPECT_EQ(space.index_of_node(v), kNotASource);
}

TEST(TokenSpace, InitialKnowledge) {
  const TokenSpace space = TokenSpace::contiguous({{0, 2}, {2, 1}});
  const auto knowledge = space.initial_knowledge(4);
  ASSERT_EQ(knowledge.size(), 4u);
  EXPECT_TRUE(knowledge[0].test(0));
  EXPECT_TRUE(knowledge[0].test(1));
  EXPECT_FALSE(knowledge[0].test(2));
  EXPECT_TRUE(knowledge[2].test(2));
  EXPECT_EQ(knowledge[1].count(), 0u);
  EXPECT_EQ(knowledge[3].count(), 0u);
}

TEST(OneHolderPerToken, DrawsOneHolderPerTokenInTokenOrder) {
  constexpr std::size_t kN = 7;
  constexpr std::size_t kK = 40;
  Rng rng(11);
  const std::vector<KnowledgeSet> init = one_holder_per_token(kN, kK, rng);
  ASSERT_EQ(init.size(), kN);
  // Token t sits at the t-th draw of the same stream, and nowhere else; the
  // caller's Rng is left just past the k draws.
  Rng replay(11);
  for (std::size_t t = 0; t < kK; ++t) {
    const std::uint64_t holder = replay.next_below(kN);
    for (std::size_t v = 0; v < kN; ++v) EXPECT_EQ(init[v].test(t), v == holder);
  }
  EXPECT_EQ(rng.next(), replay.next());
}

TEST(TokenSpaceDeath, OverlappingListsRejected) {
  EXPECT_DEATH(TokenSpace(3, {{0, {0, 1}}, {1, {1, 2}}}), "DG_CHECK");
}

TEST(TokenSpaceDeath, IncompletePartitionRejected) {
  EXPECT_DEATH(TokenSpace(3, {{0, {0, 1}}}), "DG_CHECK");  // token 2 unowned
}

TEST(TokenSpaceDeath, DuplicateSourceNodesRejected) {
  EXPECT_DEATH(TokenSpace(2, {{3, {0}}, {3, {1}}}), "DG_CHECK");
}

TEST(TokenSpaceDeath, ZeroCountSourceRejected) {
  EXPECT_DEATH(TokenSpace::contiguous({{0, 0}}), "DG_CHECK");
}

}  // namespace
}  // namespace dyngossip
