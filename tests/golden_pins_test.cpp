// Golden output pins for the forward pass: predictions and embeddings of
// seeded, untrained models of the four Table II families on two fixed
// fixture graphs, plus a few h0 rows, checked bitwise against
// tests/data/golden_forward_v1.txt at the scalar SIMD level with the
// fast-math overlay off (whatever DEEPGATE_SIMD / DEEPGATE_FAST_MATH say),
// and within a tolerance at the best available level, with and without the
// fast-math overlay. The cross-path equality suites (batched == solo,
// incremental == rebuild) cannot see a drift applied to every path alike;
// these pins can.
//
// Regenerate only when the forward's numerics are meant to change: run this
// binary with DG_REGEN_GOLDEN=1 and commit the rewritten file.
#include "core/deepgate.hpp"

#include "aig/gate_graph.hpp"
#include "data/generators_large.hpp"
#include "gnn/model_common.hpp"
#include "nn/simd/dispatch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using dg::gnn::CircuitGraph;
using dg::gnn::ModelFamily;
using Pins = std::map<std::string, std::vector<float>>;

std::string golden_path() { return std::string(DG_TEST_DATA_DIR) + "/golden_forward_v1.txt"; }

/// Pin the dispatch level and the fast-math overlay; restore both on exit.
class ScopedNumerics {
 public:
  explicit ScopedNumerics(dg::nn::kern::SimdLevel level, bool fast_math = false)
      : level_(dg::nn::kern::simd::set_level(level)),
        fast_math_(dg::nn::kern::simd::set_fast_math(fast_math)) {}
  ~ScopedNumerics() {
    dg::nn::kern::simd::set_fast_math(fast_math_);
    dg::nn::kern::simd::set_level(level_);
  }

 private:
  dg::nn::kern::SimdLevel level_;
  bool fast_math_;
};

CircuitGraph from_aig(const dg::aig::Aig& a) {
  const dg::aig::GateGraph g = dg::aig::to_gate_graph(a);
  return CircuitGraph::from_gate_graph(g, std::vector<double>(g.size(), 0.5));
}

/// x, y, z; (x & y) & (x & z): a reconvergence at the output.
CircuitGraph diamond() {
  dg::aig::Aig a;
  const dg::aig::Lit x = dg::aig::make_lit(a.add_input(), false);
  const dg::aig::Lit y = dg::aig::make_lit(a.add_input(), false);
  const dg::aig::Lit z = dg::aig::make_lit(a.add_input(), false);
  a.add_output(a.add_and(a.add_and(x, y), a.add_and(x, z)));
  return from_aig(a);
}

struct Fixture {
  const char* name;
  CircuitGraph graph;
};

std::vector<Fixture> fixtures() {
  return {{"diamond", diamond()}, {"mult2", from_aig(dg::data::gen_multiplier(2))}};
}

struct Family {
  const char* name;
  dg::gnn::ModelSpec spec;
};

const Family kFamilies[] = {
    {"gcn", {ModelFamily::kGcn, dg::gnn::AggKind::kConvSum, false}},
    {"dag_conv", {ModelFamily::kDagConv, dg::gnn::AggKind::kGatedSum, false}},
    {"dag_rec", {ModelFamily::kDagRec, dg::gnn::AggKind::kDeepSet, false}},
    {"deepgate", {ModelFamily::kDeepGate, dg::gnn::AggKind::kAttention, true}},
};

dg::gnn::ModelConfig pinned_config() {
  dg::gnn::ModelConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 2;
  cfg.mlp_hidden = 8;
  cfg.seed = 1234;
  return cfg;
}

/// Every pinned quantity, keyed "<family>/<graph>/<pred|emb>" and
/// "h0/<graph>/<node>", computed at the currently active numerics.
Pins compute_pins() {
  Pins pins;
  const std::vector<Fixture> graphs = fixtures();
  for (const Family& family : kFamilies) {
    deepgate::Options opts;
    opts.model = pinned_config();
    opts.spec = family.spec;
    const deepgate::Engine engine(opts);
    for (const Fixture& f : graphs) {
      const std::string tag = std::string(family.name) + "/" + f.name;
      pins[tag + "/pred"] = engine.predict_probabilities(f.graph);
      const dg::nn::Matrix emb = engine.embeddings(f.graph);
      pins[tag + "/emb"].assign(emb.data(), emb.data() + emb.size());
    }
  }
  const dg::gnn::ModelConfig cfg = pinned_config();
  for (const Fixture& f : graphs)
    for (const int v : {0, 3, f.graph.num_nodes - 1}) {
      std::vector<float> row(static_cast<std::size_t>(cfg.dim));
      dg::gnn::init_node_state(f.graph, v, cfg.dim, /*random_init=*/true, cfg.seed, row.data());
      pins["h0/" + std::string(f.name) + "/" + std::to_string(v)] = row;
    }
  return pins;
}

std::uint32_t bits(float x) {
  std::uint32_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void write_pins(const std::string& path, const Pins& pins) {
  std::ofstream out(path);
  out << "# Golden forward pins (tests/golden_pins_test.cpp), float32 bit patterns in hex.\n"
         "# Regenerate: DG_REGEN_GOLDEN=1 ./golden_pins_test\n";
  for (const auto& [tag, values] : pins) {
    out << tag << ' ' << values.size();
    for (const float x : values) out << ' ' << std::hex << bits(x) << std::dec;
    out << '\n';
  }
}

Pins read_pins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string tag;
    std::size_t count = 0;
    row >> tag >> count;
    std::vector<float>& values = pins[tag];
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t b = 0;
      row >> std::hex >> b >> std::dec;
      float x = 0.0F;
      std::memcpy(&x, &b, sizeof(x));
      values.push_back(x);
    }
  }
  return pins;
}

TEST(GoldenPins, ScalarForwardMatchesBitwise) {
  const ScopedNumerics scalar(dg::nn::kern::SimdLevel::kScalar);
  const Pins got = compute_pins();
  if (std::getenv("DG_REGEN_GOLDEN") != nullptr) {
    write_pins(golden_path(), got);
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  const Pins want = read_pins(golden_path());
  ASSERT_FALSE(want.empty()) << "golden file missing or empty: " << golden_path();
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [tag, values] : want) {
    const auto it = got.find(tag);
    ASSERT_NE(it, got.end()) << tag;
    ASSERT_EQ(it->second.size(), values.size()) << tag;
    for (std::size_t i = 0; i < values.size(); ++i)
      EXPECT_EQ(bits(it->second[i]), bits(values[i])) << tag << " [" << i << "]";
  }
}

// avx2 sigmoid/tanh carry a 2e-6 bound per map and the fast-math overlay
// one FMA rounding per step; two recurrent iterations stay far inside 1e-4.
TEST(GoldenPins, NativeForwardWithinTolerance) {
  if (std::getenv("DG_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  const Pins want = read_pins(golden_path());
  for (const bool fast_math : {false, true}) {
    const ScopedNumerics native(dg::nn::kern::simd::best_available(), fast_math);
    const Pins got = compute_pins();
    ASSERT_EQ(want.size(), got.size());
    for (const auto& [tag, values] : want) {
      const std::vector<float>& g = got.at(tag);
      ASSERT_EQ(g.size(), values.size()) << tag;
      for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_NEAR(g[i], values[i], 1e-4F * (1.0F + std::abs(values[i])))
            << tag << " [" << i << "] fast_math=" << fast_math;
    }
  }
}

}  // namespace
