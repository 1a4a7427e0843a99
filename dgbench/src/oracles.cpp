// Output oracles the benchmark computes itself, from the graphs' defining
// fields only: exhaustive signal probabilities, longest-path levels, and the
// per-gate-type mean predictor.
#include "bench.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace dgbench {

namespace {

/// Kahn topological order of the edge list; throws CheckFailure on a cycle.
std::vector<int> topo_order(const CircuitGraph& g, std::vector<std::vector<int>>* fanins) {
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::vector<std::vector<int>> fanout(n);
  std::vector<int> indeg(n, 0);
  if (fanins != nullptr) fanins->assign(n, {});
  for (const auto& [src, dst] : g.edges) {
    check(src >= 0 && dst >= 0 && src < g.num_nodes && dst < g.num_nodes, "edge id out of range");
    fanout[static_cast<std::size_t>(src)].push_back(dst);
    ++indeg[static_cast<std::size_t>(dst)];
    if (fanins != nullptr) (*fanins)[static_cast<std::size_t>(dst)].push_back(src);
  }
  std::vector<int> order;
  order.reserve(n);
  for (std::size_t v = 0; v < n; ++v)
    if (indeg[v] == 0) order.push_back(static_cast<int>(v));
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const int w : fanout[static_cast<std::size_t>(order[i])])
      if (--indeg[static_cast<std::size_t>(w)] == 0) order.push_back(w);
  check(order.size() == n, "graph has a cycle");
  return order;
}

}  // namespace

std::vector<double> exact_probabilities(const CircuitGraph& g, int max_inputs) {
  std::vector<std::vector<int>> fanins;
  const std::vector<int> order = topo_order(g, &fanins);
  std::vector<int> input_index(static_cast<std::size_t>(g.num_nodes), -1);
  int k = 0;
  for (int v = 0; v < g.num_nodes; ++v)
    if (g.type_id[static_cast<std::size_t>(v)] == 0) input_index[static_cast<std::size_t>(v)] = k++;
  if (k > max_inputs) return {};

  // Bit-parallel enumeration of all 2^k assignments, 64 per word, in chunks
  // of kChunk words so memory stays nodes x kChunk words.
  constexpr std::size_t kChunk = 64;
  const std::uint64_t assignments = std::uint64_t{1} << k;
  const std::uint64_t words = std::max<std::uint64_t>(1, assignments / 64);
  const std::uint64_t last_mask = assignments >= 64 ? ~0ULL : ((1ULL << assignments) - 1);
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::vector<std::uint64_t> val(n * kChunk);
  std::vector<std::uint64_t> ones(n, 0);
  static constexpr std::uint64_t kLow[6] = {0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
                                            0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
                                            0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  for (std::uint64_t w0 = 0; w0 < words; w0 += kChunk) {
    const std::size_t cw = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, words - w0));
    for (const int v : order) {
      const auto vi = static_cast<std::size_t>(v);
      std::uint64_t* out = &val[vi * kChunk];
      const int type = g.type_id[vi];
      const std::vector<int>& in = fanins[vi];
      for (std::size_t c = 0; c < cw; ++c) {
        const std::uint64_t w = w0 + c;
        std::uint64_t x = 0;
        if (type == 0) {
          const int i = input_index[vi];
          x = i < 6 ? kLow[i] : (((w >> (i - 6)) & 1U) != 0 ? ~0ULL : 0ULL);
        } else if (type == 1) {
          x = ~0ULL;
          for (const int f : in) x &= val[static_cast<std::size_t>(f) * kChunk + c];
        } else {
          check(in.size() == 1, "NOT gate without exactly one fanin");
          x = ~val[static_cast<std::size_t>(in[0]) * kChunk + c];
        }
        out[c] = x;
        ones[vi] += static_cast<std::uint64_t>(std::popcount(x & last_mask));
      }
    }
  }
  std::vector<double> p(n);
  for (std::size_t v = 0; v < n; ++v)
    p[v] = static_cast<double>(ones[v]) / static_cast<double>(assignments);
  return p;
}

std::size_t check_labels_exact(const std::vector<const CircuitGraph*>& graphs,
                               std::size_t patterns, double* worst_gap) {
  std::size_t covered = 0;
  double worst = 0.0;
  for (const CircuitGraph* g : graphs) {
    const std::vector<double> exact = exact_probabilities(*g);
    if (exact.empty()) continue;
    ++covered;
    for (std::size_t v = 0; v < exact.size(); ++v) {
      const double p = exact[v];
      const double gap = std::fabs(static_cast<double>(g->labels[v]) - p);
      const double sigma = std::sqrt(p * (1.0 - p) / static_cast<double>(patterns));
      worst = std::max(worst, gap);
      // Six binomial sigma, plus three patterns of slack: for a rare event
      // (p * patterns << 1) a single hit is likely and sigma says nothing.
      if (gap > 6.0 * sigma + 3.0 / static_cast<double>(patterns)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "label of node %zu is %.6f, exact probability %.6f (beyond 6 sigma)", v,
                      static_cast<double>(g->labels[v]), p);
        check(false, buf);
      }
    }
  }
  if (worst_gap != nullptr) *worst_gap = worst;
  return covered;
}

void check_levels(const CircuitGraph& g) {
  check(static_cast<int>(g.level.size()) == g.num_nodes, "level vector size");
  std::vector<std::vector<int>> fanins;
  const std::vector<int> order = topo_order(g, &fanins);
  std::vector<int> level(static_cast<std::size_t>(g.num_nodes), 0);
  for (const int v : order) {
    int l = 0;
    for (const int f : fanins[static_cast<std::size_t>(v)])
      l = std::max(l, level[static_cast<std::size_t>(f)] + 1);
    level[static_cast<std::size_t>(v)] = l;
    if (g.level[static_cast<std::size_t>(v)] != l) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "node %d stored at level %d, longest path gives %d", v,
                    g.level[static_cast<std::size_t>(v)], l);
      check(false, buf);
    }
  }
}

TypeMean fit_type_mean(const std::vector<CircuitGraph>& train) {
  std::vector<double> sum, count;
  for (const CircuitGraph& g : train) {
    sum.resize(std::max<std::size_t>(sum.size(), static_cast<std::size_t>(g.num_types)), 0.0);
    count.resize(sum.size(), 0.0);
    for (int v = 0; v < g.num_nodes; ++v) {
      const auto t = static_cast<std::size_t>(g.type_id[static_cast<std::size_t>(v)]);
      sum[t] += g.labels[static_cast<std::size_t>(v)];
      count[t] += 1.0;
    }
  }
  TypeMean m;
  m.mean.resize(sum.size(), 0.5);
  for (std::size_t t = 0; t < sum.size(); ++t)
    if (count[t] > 0) m.mean[t] = sum[t] / count[t];
  return m;
}

double TypeMean::error(const std::vector<const CircuitGraph*>& graphs) const {
  double err = 0.0, nodes = 0.0;
  for (const CircuitGraph* g : graphs)
    for (int v = 0; v < g->num_nodes; ++v) {
      const auto t = static_cast<std::size_t>(g->type_id[static_cast<std::size_t>(v)]);
      err += std::fabs(static_cast<double>(g->labels[static_cast<std::size_t>(v)]) -
                       (t < mean.size() ? mean[t] : 0.5));
      nodes += 1.0;
    }
  return nodes > 0 ? err / nodes : 0.0;
}

double eq8_error(const std::vector<const CircuitGraph*>& graphs,
                 const std::vector<std::vector<float>>& predictions) {
  double err = 0.0, nodes = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i)
    for (int v = 0; v < graphs[i]->num_nodes; ++v) {
      err += std::fabs(static_cast<double>(graphs[i]->labels[static_cast<std::size_t>(v)]) -
                       static_cast<double>(predictions[i][static_cast<std::size_t>(v)]));
      nodes += 1.0;
    }
  return nodes > 0 ? err / nodes : 0.0;
}

}  // namespace dgbench
