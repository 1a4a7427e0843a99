// Mutation-fuzzed equality oracle for incremental inference: a random edit
// stream drives an IncrementalSession and, after every applied edit, the
// session's incremental outputs must be BITWISE identical to rebuilding the
// graph from its defining fields and running the plain forward — for all
// four model families, with the no-grad arena both on and off. Plus the
// structural guarantee behind the memo: embed-then-predict on an unchanged
// session performs exactly one level-loop forward.
#include "core/incremental_session.hpp"

#include "gnn/incremental.hpp"
#include "nn/arena.hpp"
#include "synth/mutate.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace {

using dg::gnn::CircuitGraph;

/// Random typed DAG with skip edges (same shape family as the graph-layer
/// delta tests, independent of the AIG pipeline).
CircuitGraph random_graph(int n, std::uint64_t seed) {
  dg::util::Rng rng(seed);
  CircuitGraph g;
  g.num_nodes = n;
  g.num_types = 3;
  g.type_id.resize(static_cast<std::size_t>(n));
  g.level.resize(static_cast<std::size_t>(n));
  g.labels.assign(static_cast<std::size_t>(n), 0.5F);
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v < 3 || rng.next_bool(0.2)) {
      g.type_id[vi] = 0;
      g.level[vi] = 0;
      continue;
    }
    const int arity = 1 + static_cast<int>(rng.next_below(2));
    g.type_id[vi] = arity == 1 ? 2 : 1;
    int max_level = -1;
    for (int k = 0; k < arity; ++k) {
      const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
      g.edges.emplace_back(src, v);
      max_level = std::max(max_level, g.level[static_cast<std::size_t>(src)]);
    }
    g.level[vi] = max_level + 1;
  }
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (g.level[vi] < 2 || !rng.next_bool(0.25)) continue;
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
    const int diff = g.level[vi] - g.level[static_cast<std::size_t>(src)];
    if (diff >= 2) g.skip_edges.push_back({src, v, diff});
  }
  g.finalize();
  return g;
}

/// From-scratch oracle: rebuild every derived structure from the mutated
/// graph's defining fields, so the reference forward shares nothing with the
/// delta-maintained layout.
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

void expect_bitwise(const std::vector<float>& got, const std::vector<float>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
  }
}

void expect_bitwise(const dg::nn::Matrix& got, const dg::nn::Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (got.size() != 0) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
  }
}

deepgate::Options small_options(dg::gnn::ModelFamily family) {
  deepgate::Options o;
  o.model.dim = 8;
  o.model.iterations = 2;
  o.model.mlp_hidden = 8;
  o.spec.family = family;
  o.spec.agg = dg::gnn::AggKind::kAttention;
  o.spec.use_skip = family == dg::gnn::ModelFamily::kDeepGate;
  return o;
}

/// One fuzzed session: stream random edits, query after every applied edit,
/// compare bitwise against the rebuilt-from-scratch forward.
void fuzz_family(dg::gnn::ModelFamily family, bool arena_on, std::uint64_t seed) {
  SCOPED_TRACE(std::string(dg::gnn::model_family_name(family)) +
               (arena_on ? " arena=on" : " arena=off"));
  const bool arena_before = dg::nn::arena_enabled();
  dg::nn::arena_set_enabled(arena_on);

  const deepgate::Engine engine(small_options(family));
  deepgate::IncrementalSession session(engine, random_graph(30, seed));
  dg::util::Rng rng(seed * 77 + 1);

  int applied = 0;
  for (int step = 0; step < 40 && applied < 16; ++step) {
    const CircuitGraph& g = session.graph();
    dg::synth::MutationContext ctx;
    ctx.num_nodes = g.num_nodes;
    ctx.num_types = g.num_types;
    ctx.type_id = g.type_id;
    ctx.level = g.level;
    ctx.fanout_count = g.fanout_counts();
    const dg::synth::Mutation m = dg::synth::random_mutation(ctx, rng);
    try {
      switch (m.kind) {
        case dg::synth::Mutation::Kind::kInsert:
          session.insert_node(m.type_id, m.fanins);
          break;
        case dg::synth::Mutation::Kind::kDelete:
          session.delete_node(m.node);
          break;
        case dg::synth::Mutation::Kind::kRewire:
          session.rewire_node(m.node, m.fanins);
          break;
      }
      ++applied;
    } catch (const std::invalid_argument&) {
      continue;  // cycle-creating rewire: skipped step
    }

    const CircuitGraph fresh = rebuild(session.graph());
    expect_bitwise(engine.predict_incremental(session), engine.predict_probabilities(fresh),
                   "prediction");
    // Unchanged since the predict: must replay the memo, and still match.
    expect_bitwise(engine.embeddings_incremental(session), engine.embeddings(fresh),
                   "embedding");
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence after applied edit " << applied;
      break;
    }
  }
  EXPECT_GE(applied, 10);
  dg::nn::arena_set_enabled(arena_before);
}

class IncrementalFuzz : public ::testing::TestWithParam<bool> {};

TEST_P(IncrementalFuzz, DeepGateMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDeepGate, GetParam(), 21);
}
TEST_P(IncrementalFuzz, DagRecMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDagRec, GetParam(), 22);
}
TEST_P(IncrementalFuzz, DagConvMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDagConv, GetParam(), 23);
}
TEST_P(IncrementalFuzz, GcnMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kGcn, GetParam(), 24);
}

INSTANTIATE_TEST_SUITE_P(ArenaOnOff, IncrementalFuzz, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ArenaOn" : "ArenaOff";
                         });

// Memoization disabled: every query is a plain full forward, and outputs
// still match the from-scratch oracle.
TEST(IncrementalMemoKnob, DisabledSessionStaysCorrect) {
  struct OverrideGuard {
    ~OverrideGuard() { dg::gnn::incremental_memo_clear_override(); }
  } guard;

  const deepgate::Engine engine(small_options(dg::gnn::ModelFamily::kDeepGate));
  deepgate::IncrementalSession session(engine, random_graph(25, 5));

  // Capture a memo, then disable: the next query must fall back to a plain
  // full forward AND discard the now-unmaintained memo.
  auto probs = engine.predict_incremental(session);
  EXPECT_TRUE(session.last_stats().partial == false && session.last_stats().memo_hit == false);
  dg::gnn::incremental_memo_set_enabled(false);
  session.insert_node(1, {0, 1});
  probs = engine.predict_incremental(session);
  EXPECT_FALSE(session.last_stats().memo_hit);
  EXPECT_FALSE(session.last_stats().partial);
  expect_bitwise(probs, engine.predict_probabilities(rebuild(session.graph())), "disabled");

  // Re-enabling mid-session must not resurrect the stale pre-disable memo.
  dg::gnn::incremental_memo_set_enabled(true);
  session.rewire_node(session.graph().num_nodes - 1, {1, 2});
  probs = engine.predict_incremental(session);
  EXPECT_FALSE(session.last_stats().partial);  // no memo survived: full capture
  expect_bitwise(probs, engine.predict_probabilities(rebuild(session.graph())), "re-enabled");

  // And the rebuilt memo serves the partial path again.
  session.insert_node(2, {0});
  probs = engine.predict_incremental(session);
  EXPECT_TRUE(session.last_stats().partial);
  expect_bitwise(probs, engine.predict_probabilities(rebuild(session.graph())), "partial again");
}

// The PR 5 residual, closed: embed-then-predict on an unchanged session runs
// exactly ONE level-loop propagation (the embed's), the predict replays the
// memo. Asserted structurally via the process-wide forward counters.
TEST(IncrementalForwardCount, EmbedThenPredictUnchangedIsOneForward) {
  const deepgate::Engine engine(small_options(dg::gnn::ModelFamily::kDeepGate));
  deepgate::IncrementalSession session(engine, random_graph(30, 9));

  const auto c0 = dg::gnn::forward_counters();
  const dg::nn::Matrix emb = engine.embeddings_incremental(session);
  const auto c1 = dg::gnn::forward_counters();
  EXPECT_EQ(c1.full, c0.full + 1);
  EXPECT_EQ(c1.partial, c0.partial);

  const std::vector<float> probs = engine.predict_incremental(session);
  const auto c2 = dg::gnn::forward_counters();
  EXPECT_EQ(c2.full, c1.full);  // memo hit: zero propagation
  EXPECT_EQ(c2.partial, c1.partial);
  EXPECT_TRUE(session.last_stats().memo_hit);
  EXPECT_EQ(static_cast<int>(probs.size()), session.graph().num_nodes);
  EXPECT_EQ(emb.rows(), session.graph().num_nodes);

  // An edit flips the next query to the cone-limited partial path.
  session.insert_node(1, {0, 1});
  engine.predict_incremental(session);
  const auto c3 = dg::gnn::forward_counters();
  EXPECT_EQ(c3.full, c2.full);
  EXPECT_EQ(c3.partial, c2.partial + 1);
  EXPECT_TRUE(session.last_stats().partial);
  EXPECT_GT(session.last_stats().dirty_nodes, 0);
  EXPECT_LT(session.last_stats().dirty_nodes, session.graph().num_nodes);
}

/// Two components in one plain graph: a's nodes take ids [0, a.num_nodes),
/// b's follow, so every level lists a's nodes before b's.
CircuitGraph plain_union(const CircuitGraph& a, const CircuitGraph& b) {
  CircuitGraph g;
  g.num_nodes = a.num_nodes + b.num_nodes;
  g.num_types = a.num_types;
  for (const CircuitGraph* part : {&a, &b}) {
    const int off = part == &a ? 0 : a.num_nodes;
    g.type_id.insert(g.type_id.end(), part->type_id.begin(), part->type_id.end());
    g.level.insert(g.level.end(), part->level.begin(), part->level.end());
    g.labels.insert(g.labels.end(), part->labels.begin(), part->labels.end());
    for (const auto& [src, dst] : part->edges) g.edges.emplace_back(src + off, dst + off);
    for (const auto& e : part->skip_edges)
      g.skip_edges.push_back({e.src + off, e.dst + off, e.level_diff});
  }
  g.finalize();
  return g;
}

// An edit inside one component must re-propagate that component only, even
// when it shifts the level positions of the other component's nodes: h0 rows
// are keyed by structure, not by (level, position).
void expect_confined(dg::gnn::ModelFamily family) {
  SCOPED_TRACE(dg::gnn::model_family_name(family));
  const CircuitGraph a = random_graph(24, 31);
  const CircuitGraph b = random_graph(24, 32);
  const deepgate::Engine engine(small_options(family));
  deepgate::IncrementalSession session(engine, plain_union(a, b));
  engine.predict_incremental(session);  // full capture
  int a_size = a.num_nodes;

  // Delete a gate of a that feeds nothing, at a level b also holds, so every
  // node of b at that level moves up one position.
  const std::vector<int> fanouts = session.graph().fanout_counts();
  int victim = -1;
  for (int v = 0; v < a_size; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const CircuitGraph& g = session.graph();
    if (fanouts[vi] == 0 && g.type_id[vi] != 0 && g.level[vi] < b.num_levels &&
        (victim < 0 || g.level[vi] < g.level[static_cast<std::size_t>(victim)]))
      victim = v;
  }
  ASSERT_GE(victim, 0);
  session.delete_node(victim);
  --a_size;
  expect_bitwise(engine.predict_incremental(session),
                 engine.predict_probabilities(rebuild(session.graph())), "after delete");
  EXPECT_TRUE(session.last_stats().partial);
  EXPECT_LE(session.last_stats().dirty_nodes, a_size) << "the delete dirtied the other component";

  // Rewire the last gate of a at level >= 2 onto a level-0 fanin of a: it
  // drops to level 1, leaving its old level and joining level 1 ahead of b.
  int node = -1;
  for (int v = 0; v < a_size; ++v)
    if (session.graph().level[static_cast<std::size_t>(v)] >= 2) node = v;
  ASSERT_GE(node, 0);
  int pi = -1;
  for (int v = 0; v < node && pi < 0; ++v)
    if (session.graph().level[static_cast<std::size_t>(v)] == 0) pi = v;
  ASSERT_GE(pi, 0);
  session.rewire_node(node, {pi});
  ASSERT_EQ(session.graph().level[static_cast<std::size_t>(node)], 1);
  expect_bitwise(engine.predict_incremental(session),
                 engine.predict_probabilities(rebuild(session.graph())), "after rewire");
  EXPECT_TRUE(session.last_stats().partial);
  EXPECT_LE(session.last_stats().dirty_nodes, a_size) << "the rewire dirtied the other component";
  expect_bitwise(engine.embeddings_incremental(session),
                 engine.embeddings(rebuild(session.graph())), "embedding after rewire");
}

TEST(IncrementalConfinement, EditsStayInTheirComponent) {
  for (const auto family :
       {dg::gnn::ModelFamily::kDeepGate, dg::gnn::ModelFamily::kDagRec,
        dg::gnn::ModelFamily::kDagConv, dg::gnn::ModelFamily::kGcn})
    expect_confined(family);
}

TEST(IncrementalSession, RejectsForeignAndDegenerateGraphs) {
  const deepgate::Engine a(small_options(dg::gnn::ModelFamily::kDeepGate));
  const deepgate::Engine b(small_options(dg::gnn::ModelFamily::kDeepGate));
  EXPECT_THROW(deepgate::IncrementalSession(a, CircuitGraph{}), std::invalid_argument);

  const CircuitGraph g1 = random_graph(10, 3);
  const CircuitGraph g2 = random_graph(10, 4);
  EXPECT_THROW(deepgate::IncrementalSession(a, CircuitGraph::merge({&g1, &g2})),
               std::invalid_argument);

  deepgate::IncrementalSession session(a, random_graph(10, 3));
  EXPECT_THROW(b.predict_incremental(session), std::invalid_argument);
  EXPECT_THROW(b.embeddings_incremental(session), std::invalid_argument);
}

}  // namespace
