#include "gnn/circuit_graph.hpp"

#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include <set>

namespace dg::gnn {
namespace {

using namespace dg::aig;

CircuitGraph diamond_graph() {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit z = make_lit(a.add_input(), false);
  const Lit n1 = a.add_and(x, y);
  const Lit n2 = a.add_and(x, z);
  a.add_output(a.add_and(n1, n2));
  const GateGraph g = to_gate_graph(a);
  const auto labels = sim::exact_gate_graph_probabilities(g);
  return CircuitGraph::from_gate_graph(g, labels);
}

TEST(CircuitGraph, BasicShape) {
  const CircuitGraph g = diamond_graph();
  EXPECT_EQ(g.num_nodes, 6);
  EXPECT_EQ(g.num_types, 3);
  EXPECT_EQ(g.num_levels, 3);
  EXPECT_EQ(g.edges.size(), 6U);  // three 2-input ANDs
  EXPECT_EQ(g.labels.size(), 6U);
}

TEST(CircuitGraph, SkipEdgesDetected) {
  const CircuitGraph g = diamond_graph();
  ASSERT_EQ(g.skip_edges.size(), 1U);
  EXPECT_EQ(g.skip_edges[0].level_diff, 2);
}

TEST(CircuitGraph, LevelLayoutConsistent) {
  const CircuitGraph g = diamond_graph();
  // Every node appears exactly once across level buckets at its own level.
  std::set<int> seen;
  for (int L = 0; L < g.num_levels; ++L) {
    for (int v : g.nodes_at_level[static_cast<std::size_t>(L)]) {
      EXPECT_EQ(g.level[static_cast<std::size_t>(v)], L);
      EXPECT_TRUE(seen.insert(v).second);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.num_nodes);
  // level_order/node_pos are mutually consistent.
  for (int L = 0, idx = 0; L < g.num_levels; ++L) {
    for (int v : g.nodes_at_level[static_cast<std::size_t>(L)]) {
      EXPECT_EQ(g.level_order[static_cast<std::size_t>(idx)], v);
      ++idx;
    }
  }
}

TEST(CircuitGraph, ForwardBatchesCoverAllEdges) {
  const CircuitGraph g = diamond_graph();
  std::size_t batched = 0;
  for (const auto& batch : g.fwd) batched += static_cast<std::size_t>(batch.num_edges);
  EXPECT_EQ(batched, g.edges.size());
  // Skip batches additionally include the skip edges.
  std::size_t batched_skip = 0;
  for (const auto& batch : g.fwd_skip) batched_skip += static_cast<std::size_t>(batch.num_edges);
  EXPECT_EQ(batched_skip, g.edges.size() + g.skip_edges.size());
}

TEST(CircuitGraph, ReverseBatchesMirrorForward) {
  const CircuitGraph g = diamond_graph();
  std::size_t rev_edges = 0;
  for (const auto& batch : g.rev) rev_edges += static_cast<std::size_t>(batch.num_edges);
  EXPECT_EQ(rev_edges, g.edges.size());
}

TEST(CircuitGraph, SegmentsIndexLevelNodes) {
  const CircuitGraph g = diamond_graph();
  for (int L = 0; L < g.num_levels; ++L) {
    const auto& batch = g.fwd[static_cast<std::size_t>(L)];
    const int num_dst = static_cast<int>(g.nodes_at_level[static_cast<std::size_t>(L)].size());
    for (int s : batch.seg) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, num_dst);
    }
  }
}

TEST(CircuitGraph, SourceGroupsAreBelowDstLevelInForward) {
  const CircuitGraph g = diamond_graph();
  for (int L = 1; L < g.num_levels; ++L) {
    for (const auto& group : g.fwd[static_cast<std::size_t>(L)].groups)
      EXPECT_LT(group.level, L);
  }
}

TEST(CircuitGraph, InvDegMatchesIndegree) {
  const CircuitGraph g = diamond_graph();
  // Level-2 node (the top AND) has 2 fanins in fwd, but 4 edges in fwd_skip
  // counting... no: skip adds 1 edge -> 3.
  const auto& top_batch = g.fwd[2];
  ASSERT_EQ(top_batch.inv_deg.size(), 1U);
  EXPECT_FLOAT_EQ(top_batch.inv_deg[0], 0.5F);
  const auto& top_skip = g.fwd_skip[2];
  EXPECT_FLOAT_EQ(top_skip.inv_deg[0], 1.0F / 3.0F);
}

TEST(CircuitGraph, PeRowsOnlyForSkipEdges) {
  const CircuitGraph g = diamond_graph();
  const auto& batch = g.fwd_skip[2];
  ASSERT_EQ(batch.pe.rows(), 3);  // 2 normal + 1 skip
  int nonzero_rows = 0;
  for (int r = 0; r < batch.pe.rows(); ++r) {
    float mag = 0.0F;
    for (int c = 0; c < batch.pe.cols(); ++c) mag += std::abs(batch.pe.at(r, c));
    nonzero_rows += mag > 1e-6F;
  }
  EXPECT_EQ(nonzero_rows, 1);
}

TEST(CircuitGraph, UndirectedArraysDoubleEdges) {
  const CircuitGraph g = diamond_graph();
  EXPECT_EQ(g.und_src.size(), 2 * g.edges.size());
  EXPECT_EQ(g.und_dst.size(), 2 * g.edges.size());
}

TEST(CircuitGraph, NodesOfTypePartition) {
  const CircuitGraph g = diamond_graph();
  std::size_t total = 0;
  for (const auto& nodes : g.nodes_of_type) total += nodes.size();
  EXPECT_EQ(static_cast<int>(total), g.num_nodes);
  EXPECT_EQ(g.nodes_of_type[0].size(), 3U);  // PIs
  EXPECT_EQ(g.nodes_of_type[1].size(), 3U);  // ANDs
  EXPECT_EQ(g.nodes_of_type[2].size(), 0U);  // no NOTs in the diamond
}

TEST(CircuitGraph, FromNetlistUsesNineTypes) {
  util::Rng rng(2);
  const netlist::Netlist nl = data::gen_itc_like(rng);
  const auto labels = sim::netlist_probabilities(nl, 2000, 3);
  const CircuitGraph g = CircuitGraph::from_netlist(nl, labels);
  EXPECT_EQ(g.num_types, 9);
  EXPECT_EQ(g.num_nodes, static_cast<int>(nl.size()));
  EXPECT_TRUE(g.skip_edges.empty());
  // Multi-input gates contribute >2 edges.
  EXPECT_GE(g.edges.size(), nl.size());
}

TEST(CircuitGraph, GeneratedFamiliesFinalizeCleanly) {
  util::Rng rng(3);
  for (const auto& family : data::family_names()) {
    const Aig a = synth::optimize(netlist::to_aig(data::generate_family(family, rng)));
    const GateGraph gg = to_gate_graph(a);
    const auto labels = sim::gate_graph_probabilities(gg, 2000, 7);
    const CircuitGraph g = CircuitGraph::from_gate_graph(gg, labels);
    EXPECT_EQ(g.num_nodes, static_cast<int>(gg.size()));
    std::size_t fwd_total = 0;
    for (const auto& b : g.fwd) fwd_total += static_cast<std::size_t>(b.num_edges);
    EXPECT_EQ(fwd_total, g.edges.size());
  }
}


// -- h0 keys -------------------------------------------------------------------

/// Defining fields only, finalized afresh.
CircuitGraph rebuild(const CircuitGraph& g) {
  CircuitGraph fresh;
  fresh.num_nodes = g.num_nodes;
  fresh.num_types = g.num_types;
  fresh.type_id = g.type_id;
  fresh.level = g.level;
  fresh.edges = g.edges;
  fresh.skip_edges = g.skip_edges;
  fresh.labels = g.labels;
  fresh.finalize(g.pe_L);
  return fresh;
}

/// Three PIs, two structurally identical ANDs over (0, 1), two identical
/// NOTs of the first AND, and an AND over (0, 1) fed in the other order.
CircuitGraph duplicates_graph() {
  CircuitGraph g;
  g.num_nodes = 8;
  g.type_id = {0, 0, 0, 1, 1, 2, 2, 1};
  g.level = {0, 0, 0, 1, 1, 2, 2, 1};
  g.edges = {{0, 3}, {1, 3}, {0, 4}, {1, 4}, {3, 5}, {3, 6}, {1, 7}, {0, 7}};
  g.labels.assign(8, 0.5F);
  g.finalize();
  return g;
}

TEST(CircuitGraphH0Key, UniqueWithinAGraphIncludingPisAndDuplicates) {
  for (const CircuitGraph& g : {diamond_graph(), duplicates_graph()}) {
    ASSERT_EQ(g.h0_key.size(), static_cast<std::size_t>(g.num_nodes));
    const std::set<std::uint64_t> keys(g.h0_key.begin(), g.h0_key.end());
    EXPECT_EQ(keys.size(), g.h0_key.size());
  }
}

TEST(CircuitGraphH0Key, IndependentOfNodeIds) {
  // The diamond with its two middle ANDs swapped in id order: same
  // structure, so the same multiset of keys, each on the matching node.
  CircuitGraph a = duplicates_graph();
  CircuitGraph b;
  b.num_nodes = 8;
  b.type_id = {0, 0, 0, 1, 2, 2, 1, 1};
  b.level = {0, 0, 0, 1, 2, 2, 1, 1};
  b.edges = {{0, 3}, {1, 3}, {3, 4}, {3, 5}, {0, 6}, {1, 6}, {1, 7}, {0, 7}};
  b.labels.assign(8, 0.5F);
  b.finalize();
  EXPECT_EQ(a.h0_key[3], b.h0_key[3]);
  EXPECT_EQ(a.h0_key[4], b.h0_key[6]);  // the second (duplicate) AND
  EXPECT_EQ(a.h0_key[5], b.h0_key[4]);
  EXPECT_EQ(a.h0_key[7], b.h0_key[7]);  // fanin order matters, not ids
  EXPECT_NE(a.h0_key[3], a.h0_key[7]);
}

TEST(CircuitGraphH0Key, MergedMembersKeepTheirSoloKeys) {
  const CircuitGraph a = diamond_graph();
  const CircuitGraph b = duplicates_graph();
  const CircuitGraph merged = CircuitGraph::merge({&a, &b, &a});
  ASSERT_EQ(merged.members.size(), 3U);
  const std::vector<const CircuitGraph*> parts{&a, &b, &a};
  for (std::size_t m = 0; m < parts.size(); ++m) {
    const GraphMember& mem = merged.members[m];
    const auto begin = merged.h0_key.begin() + mem.node_offset;
    EXPECT_TRUE(std::equal(begin, begin + mem.num_nodes, parts[m]->h0_key.begin()))
        << "member " << m;
  }
}

TEST(CircuitGraphH0Key, DeltaEditsMatchARebuild) {
  CircuitGraph g = duplicates_graph();
  g.delta_insert_node(1, {3, 2});
  EXPECT_EQ(g.h0_key, rebuild(g).h0_key);
  g.delta_delete_node(4);  // an earlier duplicate of node 3 goes
  EXPECT_EQ(g.h0_key, rebuild(g).h0_key);
  g.delta_rewire_node(7, {4, 2});  // the inserted AND climbs from level 2 to 3
  EXPECT_EQ(g.level[7], 3);
  EXPECT_EQ(g.h0_key, rebuild(g).h0_key);
  g.delta_insert_node(0, {});
  EXPECT_EQ(g.h0_key, rebuild(g).h0_key);
  EXPECT_TRUE(bit_equal(g, rebuild(g)));
}

TEST(CircuitGraphH0Key, DeleteLeavesOtherKeysInPlace) {
  // A sink outside the other nodes' fan-in cones: its deletion moves level
  // positions but no surviving key.
  CircuitGraph g = duplicates_graph();
  const std::vector<std::uint64_t> before = g.h0_key;
  g.delta_delete_node(6);
  std::vector<std::uint64_t> expected = before;
  expected.erase(expected.begin() + 6);
  EXPECT_EQ(g.h0_key, expected);
}

TEST(CircuitGraphH0Key, BitEqualComparesKeys) {
  const CircuitGraph g = duplicates_graph();
  CircuitGraph h = g;
  EXPECT_TRUE(bit_equal(g, h));
  h.h0_key[2] ^= 1;
  EXPECT_FALSE(bit_equal(g, h));
}

// -- Hostile serialized graphs ----------------------------------------------

bool parses(const CircuitGraph& g) {
  std::vector<std::uint8_t> bytes;
  g.serialize(bytes);
  CircuitGraph out;
  std::size_t offset = 0;
  return CircuitGraph::deserialize(bytes.data(), bytes.size(), offset, out);
}

TEST(CircuitGraphDeserialize, RejectsEdgesThatDoNotClimbLevels) {
  CircuitGraph g = diamond_graph();
  ASSERT_TRUE(parses(g));
  CircuitGraph flat = g;
  flat.level[static_cast<std::size_t>(flat.edges[0].second)] =
      flat.level[static_cast<std::size_t>(flat.edges[0].first)];  // same level
  EXPECT_FALSE(parses(flat));
  CircuitGraph down = g;
  std::swap(down.edges[0].first, down.edges[0].second);  // points downward
  EXPECT_FALSE(parses(down));
}

TEST(CircuitGraphDeserialize, RejectsSkipEdgesWithAWrongLevelDiff) {
  CircuitGraph g = diamond_graph();
  ASSERT_FALSE(g.skip_edges.empty());
  ASSERT_TRUE(parses(g));
  CircuitGraph bad = g;
  bad.skip_edges[0].level_diff += 1;
  EXPECT_FALSE(parses(bad));
}

}  // namespace
}  // namespace dg::gnn
