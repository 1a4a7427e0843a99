// Property suite for the segment-softmax path (ctest label: kernels): the
// dispatched kern::softmax_segments against a hand-rolled oracle of the
// original fused exp loop, edge-case segments (empty destinations, singleton
// segments, ties, large scores), the autograd op against central
// differences, the thin matvec kernel against matmul, and — the PR 7 arena
// contract — arena-on forwards bitwise-identical to arena-off across all
// four model families on the scalar backend.
#include "aig/gate_graph.hpp"
#include "gnn/models.hpp"
#include "nn/arena.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/simd/dispatch.hpp"
#include "sim/probability.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

namespace dg::nn {
namespace {

std::vector<kern::SimdLevel> runnable_levels() {
  std::vector<kern::SimdLevel> levels;
  for (kern::SimdLevel l : {kern::SimdLevel::kScalar, kern::SimdLevel::kAvx2})
    if (kern::simd::available(l)) levels.push_back(l);
  return levels;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(kern::SimdLevel level) : prev_(kern::simd::set_level(level)) {}
  ~ScopedLevel() { kern::simd::set_level(prev_); }

 private:
  kern::SimdLevel prev_;
};

/// The pre-dispatch reference: the exact fused loop nn::softmax_segments ran
/// before the exp was routed through the SIMD backends (libm exp, ascending
/// index order throughout).
Matrix softmax_segments_reference(const Matrix& s, const std::vector<int>& segment,
                                  int num_segments) {
  const int n = s.rows();
  Matrix out(n, 1);
  std::vector<float> seg_max(static_cast<std::size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (int i = 0; i < n; ++i) {
    auto& m = seg_max[static_cast<std::size_t>(segment[static_cast<std::size_t>(i)])];
    m = std::max(m, s.at(i, 0));
  }
  std::vector<float> seg_sum(static_cast<std::size_t>(num_segments), 0.0F);
  for (int i = 0; i < n; ++i) {
    const auto seg = static_cast<std::size_t>(segment[static_cast<std::size_t>(i)]);
    const float e = std::exp(s.at(i, 0) - seg_max[seg]);
    out.at(i, 0) = e;
    seg_sum[seg] += e;
  }
  for (int i = 0; i < n; ++i)
    out.at(i, 0) /= seg_sum[static_cast<std::size_t>(segment[static_cast<std::size_t>(i)])];
  return out;
}

std::pair<Matrix, std::vector<int>> random_case(int num_edges, int num_segments,
                                                std::uint64_t seed, float scale = 1.5F) {
  util::Rng rng(seed);
  std::vector<int> seg(static_cast<std::size_t>(num_edges));
  for (auto& v : seg)
    v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_segments)));
  return {normal(num_edges, 1, scale, rng), seg};
}

TEST(SoftmaxSegments, MatchesFusedReferenceBitwiseOnScalar) {
  const ScopedLevel level(kern::SimdLevel::kScalar);
  for (const auto& [edges, segments] :
       std::vector<std::pair<int, int>>{{1, 1}, {7, 3}, {64, 9}, {257, 31}}) {
    const auto [s, seg] = random_case(edges, segments, 1234U + edges);
    const Matrix want = softmax_segments_reference(s, seg, segments);
    const Matrix got = kern::softmax_segments(s, seg, segments);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
        << edges << " edges / " << segments << " segments";
  }
}

TEST(SoftmaxSegments, BackendsAgreeWithinExpBound) {
  const auto [s, seg] = random_case(513, 17, 99);
  Matrix oracle;
  {
    const ScopedLevel level(kern::SimdLevel::kScalar);
    oracle = kern::softmax_segments(s, seg, 17);
  }
  for (const kern::SimdLevel lvl : runnable_levels()) {
    const ScopedLevel level(lvl);
    const Matrix got = kern::softmax_segments(s, seg, 17);
    ASSERT_TRUE(got.same_shape(oracle));
    if (lvl == kern::SimdLevel::kAvx2) {
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got.data()[i], oracle.data()[i], 2e-6F) << "avx2 row " << i;
    } else {
      EXPECT_EQ(0, std::memcmp(got.data(), oracle.data(), oracle.size() * sizeof(float)))
          << kern::simd::level_name(lvl);
    }
  }
}

// Destinations with no incoming edges are legal (a level where some nodes
// are fed only by the other direction): they simply own no output rows, and
// must not poison the rows of populated segments.
TEST(SoftmaxSegments, ZeroIncomingEdgeDestinations) {
  const std::vector<int> seg{4, 4, 1};  // segments 0, 2, 3 are empty
  Matrix s(3, 1);
  s.at(0, 0) = 0.3F;
  s.at(1, 0) = -1.2F;
  s.at(2, 0) = 2.0F;
  const Matrix alpha = kern::softmax_segments(s, seg, 5);
  ASSERT_EQ(alpha.rows(), 3);
  EXPECT_FLOAT_EQ(alpha.at(0, 0) + alpha.at(1, 0), 1.0F);
  EXPECT_EQ(alpha.at(2, 0), 1.0F);
  for (std::size_t i = 0; i < alpha.size(); ++i) EXPECT_TRUE(std::isfinite(alpha.data()[i]));
}

// A segment with a single edge gets exactly 1.0: exp(x - max) == exp(0) ==
// 1 and 1/1 == 1, no floating-point slack allowed.
TEST(SoftmaxSegments, SingleEdgeSegmentsAreExactlyOne) {
  const int n = 9;
  const auto [s, _] = random_case(n, 1, 7, /*scale=*/40.0F);
  std::vector<int> seg(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) seg[static_cast<std::size_t>(i)] = i;  // all singletons
  const Matrix alpha = kern::softmax_segments(s, seg, n);
  for (int i = 0; i < n; ++i) EXPECT_EQ(alpha.at(i, 0), 1.0F) << "row " << i;
}

// All-equal scores: every edge of the segment gets the same weight; for
// power-of-two fan-in the division is exact.
TEST(SoftmaxSegments, EqualScoresSplitEvenly) {
  const std::vector<int> seg{0, 0, 0, 0, 1, 1, 1};
  Matrix s(7, 1);
  for (int i = 0; i < 7; ++i) s.at(i, 0) = -3.25F;
  const Matrix alpha = kern::softmax_segments(s, seg, 2);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(alpha.at(i, 0), 0.25F) << "row " << i;
  for (int i = 4; i < 7; ++i) EXPECT_NEAR(alpha.at(i, 0), 1.0F / 3.0F, 1e-6F) << "row " << i;
}

// Max-subtraction keeps large scores finite (exp(300) would overflow).
TEST(SoftmaxSegments, LargeScoresStayFinite) {
  const std::vector<int> seg{0, 0, 0};
  Matrix s(3, 1);
  s.at(0, 0) = 300.0F;
  s.at(1, 0) = 299.0F;
  s.at(2, 0) = -300.0F;
  const Matrix alpha = kern::softmax_segments(s, seg, 1);
  float sum = 0.0F;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(alpha.at(i, 0)));
    sum += alpha.at(i, 0);
  }
  EXPECT_NEAR(sum, 1.0F, 1e-6F);
  EXPECT_GT(alpha.at(0, 0), alpha.at(1, 0));
  EXPECT_EQ(alpha.at(2, 0), 0.0F);  // exp(-600) underflows to exactly zero
}

// The autograd op (which now computes its value through the dispatched
// kernel) still matches central differences, including through a downstream
// reduction that mixes segments.
TEST(SoftmaxSegments, GradcheckVsNumericGradient) {
  for (const auto& shape :
       std::vector<std::tuple<int, int, std::uint64_t>>{{5, 2, 21}, {12, 4, 22}, {20, 5, 23}}) {
    const int edges = std::get<0>(shape);
    const int segments = std::get<1>(shape);
    const std::uint64_t seed = std::get<2>(shape);
    const std::pair<Matrix, std::vector<int>> made = random_case(edges, segments, seed, 0.5F);
    const std::vector<int>& seg = made.second;
    Tensor scores = Tensor::leaf(made.first, true);
    util::Rng rng(seed + 100);
    Tensor w = Tensor::leaf(normal(edges, 1, 0.5F, rng), true);
    const auto res = gradcheck(
        [&] { return sum_all(mul(softmax_segments(scores, seg, segments), w)); },
        {scores, w});
    EXPECT_TRUE(res.ok) << edges << " edges: rel=" << res.max_rel_err
                        << " abs=" << res.max_abs_err;
  }
}

// The thin Ex1 projection kernel is documented bitwise-identical to matmul
// at n == 1 on every backend (zero-skip included).
TEST(Matvec, BitwiseIdenticalToMatmulOnEveryBackend) {
  util::Rng rng(31);
  for (const int rows : {1, 7, 8, 63, 250}) {
    Matrix a = normal(rows, 24, 1.0F, rng);
    // Sprinkle exact zeros so the zero-skip property is exercised.
    for (std::size_t i = 0; i < a.size(); i += 5) a.data()[i] = 0.0F;
    const Matrix w = normal(24, 1, 1.0F, rng);
    for (const kern::SimdLevel lvl : runnable_levels()) {
      const ScopedLevel level(lvl);
      const Matrix want = kern::matmul(a, w);
      const Matrix got = kern::matvec(a, w);
      ASSERT_TRUE(got.same_shape(want));
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
          << kern::simd::level_name(lvl) << " rows=" << rows;
    }
  }
}

// -- Arena equality across the model families --------------------------------

gnn::CircuitGraph arena_test_graph() {
  using namespace dg::aig;
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit z = make_lit(a.add_input(), false);
  const Lit n1 = a.add_and(x, lit_not(y));
  const Lit n2 = a.add_and(x, z);
  const Lit n3 = a.add_and(lit_not(n1), n2);
  a.add_output(a.add_and(n1, n3));
  a.add_output(lit_not(n3));
  const GateGraph g = to_gate_graph(a);
  return gnn::CircuitGraph::from_gate_graph(g, sim::exact_gate_graph_probabilities(g));
}

/// Scalar-backend no-grad forward with the arena on must be bitwise equal to
/// the same forward with the arena off — the pool changes where buffers
/// live, never a single bit of what is computed.
TEST(ArenaEquality, ForwardsBitwiseIdenticalAcrossFamilies) {
  const gnn::CircuitGraph g = arena_test_graph();
  gnn::ModelConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 5;
  const ScopedLevel level(kern::SimdLevel::kScalar);
  const bool was_enabled = arena_enabled();
  for (const gnn::ModelFamily family :
       {gnn::ModelFamily::kGcn, gnn::ModelFamily::kDagConv, gnn::ModelFamily::kDagRec,
        gnn::ModelFamily::kDeepGate}) {
    gnn::ModelSpec spec;
    spec.family = family;
    spec.agg = gnn::AggKind::kAttention;
    spec.use_skip = family == gnn::ModelFamily::kDeepGate;
    const auto model = gnn::make_model(spec, cfg);
    NoGradGuard no_grad;
    arena_set_enabled(false);
    const gnn::ForwardOutputs plain = model->forward_outputs(g);
    arena_set_enabled(true);
    gnn::ForwardOutputs pooled;
    {
      ArenaScope arena;
      pooled = model->forward_outputs(g);
    }
    // Two runs: the second re-uses warmed freelists, proving recycled
    // buffers start from the same computed state as fresh ones.
    gnn::ForwardOutputs pooled2;
    {
      ArenaScope arena;
      pooled2 = model->forward_outputs(g);
    }
    arena_set_enabled(was_enabled);
    for (const auto* run : {&pooled, &pooled2}) {
      ASSERT_TRUE(run->prediction.value().same_shape(plain.prediction.value()));
      ASSERT_TRUE(run->embedding.value().same_shape(plain.embedding.value()));
      EXPECT_EQ(0, std::memcmp(run->prediction.value().data(), plain.prediction.value().data(),
                               plain.prediction.value().size() * sizeof(float)))
          << gnn::model_spec_label(spec) << ": prediction differs with arena on";
      EXPECT_EQ(0, std::memcmp(run->embedding.value().data(), plain.embedding.value().data(),
                               plain.embedding.value().size() * sizeof(float)))
          << gnn::model_spec_label(spec) << ": embedding differs with arena on";
    }
  }
}

}  // namespace
}  // namespace dg::nn
