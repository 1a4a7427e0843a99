#include "core/deepgate.hpp"

#include "aig/gate_graph.hpp"
#include "util/log.hpp"
#include "netlist/to_aig.hpp"
#include "nn/arena.hpp"
#include "nn/serialize.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "synth/sweep.hpp"

#include <stdexcept>
#include <utility>

namespace deepgate {

CircuitGraph prepare(const dg::netlist::Netlist& nl, std::size_t patterns, std::uint64_t seed) {
  return prepare(dg::netlist::to_aig(nl), patterns, seed);
}

CircuitGraph prepare(const dg::aig::Aig& aig, std::size_t patterns, std::uint64_t seed) {
  dg::aig::Aig optimized = dg::synth::optimize(aig);
  // Optimization can prove outputs constant (e.g. bit 1 of a squarer); the
  // gate graph has no constant node, so those outputs must be dropped first —
  // same guard the dataset pipeline applies.
  if (optimized.uses_constants()) optimized = dg::synth::drop_constant_outputs(optimized);
  const dg::aig::GateGraph g = dg::aig::to_gate_graph(optimized);
  const auto labels = dg::sim::gate_graph_probabilities(g, patterns, seed);
  return CircuitGraph::from_gate_graph(g, labels);
}

dg::data::Dataset prepare_dataset(const DatasetOptions& options) {
  return prepare_dataset(dg::data::default_dataset_config(options.scale, options.seed),
                         options.build);
}

dg::data::Dataset prepare_dataset(const dg::data::DatasetConfig& config,
                                  const dg::data::BuildOptions& build) {
  return dg::data::build_dataset(config, build);
}

Engine::Engine(const Options& options)
    : options_(options),
      model_(dg::gnn::make_model(options.spec, options.model)),
      eval_cache_(std::make_unique<dg::gnn::MergeCache>(
          dg::gnn::ServeOptions::from_env().merge_cache_capacity)) {}

dg::gnn::TrainResult Engine::train(const std::vector<CircuitGraph>& train_set,
                                   const TrainConfig& cfg) {
  return dg::gnn::train(*model_, train_set, cfg);
}

dg::gnn::TrainResult Engine::train(dg::gnn::GraphStream& stream, const TrainConfig& cfg) {
  return dg::gnn::train_streaming(*model_, stream, cfg);
}

double Engine::evaluate(const std::vector<CircuitGraph>& test_set,
                        int iterations_override) const {
  if (iterations_override > 0) effective_iterations(iterations_override);  // log-once
  dg::gnn::EvalOptions opts = dg::gnn::EvalOptions::from_env();
  opts.iterations_override = iterations_override;
  // Epoch-loop eval of a fixed test set re-forms identical merge groups
  // every call; the engine-owned signature cache pays merge+finalize once.
  opts.merge_cache = eval_cache_.get();
  return dg::gnn::evaluate(*model_, test_set, opts);
}

std::vector<float> Engine::predict_probabilities(const CircuitGraph& g) const {
  dg::nn::NoGradGuard no_grad;
  std::vector<float> out(static_cast<std::size_t>(g.num_nodes));
  dg::nn::ArenaScope arena;  // level states / scratch recycle across calls
  const dg::nn::Tensor pred = model_->predict(g);
  for (int v = 0; v < g.num_nodes; ++v) out[static_cast<std::size_t>(v)] = pred.value().at(v, 0);
  return out;
}

dg::nn::Matrix Engine::embeddings(const CircuitGraph& g) const {
  dg::nn::NoGradGuard no_grad;
  dg::nn::Tensor emb;
  {
    dg::nn::ArenaScope arena;
    emb = model_->embed(g);
  }
  // Copy outside the scope: the caller keeps the result indefinitely, so it
  // must be plain heap, not a buffer drained from the lane's arena.
  return emb.value();
}

namespace {

/// Batch members with nodes to forward, and their request positions — an
/// empty request vector or zero-node graphs must short-circuit (no merge)
/// rather than rely on callers pre-filtering degenerate requests.
std::pair<std::vector<const CircuitGraph*>, std::vector<std::size_t>> live_members(
    const std::vector<const CircuitGraph*>& batch) {
  std::pair<std::vector<const CircuitGraph*>, std::vector<std::size_t>> live;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] == nullptr)
      throw std::invalid_argument("Engine batch inference: null graph");
    if (batch[i]->num_nodes == 0) continue;
    live.first.push_back(batch[i]);
    live.second.push_back(i);
  }
  return live;
}

}  // namespace

std::vector<std::vector<float>> Engine::predict_batch(
    const std::vector<const CircuitGraph*>& batch) const {
  std::vector<std::vector<float>> out(batch.size());
  const auto [live, index] = live_members(batch);
  if (live.empty()) return out;
  dg::nn::NoGradGuard no_grad;
  const CircuitGraph merged = CircuitGraph::merge(live);
  dg::nn::Tensor pred_t;
  {
    dg::nn::ArenaScope arena;
    pred_t = model_->predict(merged);
  }
  const dg::nn::Matrix& pred = pred_t.value();
  for (std::size_t i = 0; i < live.size(); ++i) {
    const dg::gnn::GraphMember& m = merged.members[i];
    auto& slot = out[index[i]];
    slot.resize(static_cast<std::size_t>(m.num_nodes));
    for (int v = 0; v < m.num_nodes; ++v)
      slot[static_cast<std::size_t>(v)] = pred.at(m.node_offset + v, 0);
  }
  return out;
}

std::vector<dg::nn::Matrix> Engine::embeddings_batch(
    const std::vector<const CircuitGraph*>& batch) const {
  std::vector<dg::nn::Matrix> out(batch.size());
  const auto [live, index] = live_members(batch);
  if (live.empty()) return out;
  dg::nn::NoGradGuard no_grad;
  const CircuitGraph merged = CircuitGraph::merge(live);
  dg::nn::Tensor emb_t;
  {
    dg::nn::ArenaScope arena;
    emb_t = model_->embed(merged);
  }
  const dg::nn::Matrix& emb = emb_t.value();  // member copies below stay heap
  for (std::size_t i = 0; i < live.size(); ++i)
    out[index[i]] = dg::gnn::member_rows(emb, merged.members[i]);
  return out;
}

BatchInference Engine::infer_batch(const std::vector<const CircuitGraph*>& batch) const {
  BatchInference out;
  out.probabilities.resize(batch.size());
  out.embeddings.resize(batch.size());
  const auto [live, index] = live_members(batch);
  if (live.empty()) return out;
  dg::nn::NoGradGuard no_grad;
  const CircuitGraph merged = CircuitGraph::merge(live);
  dg::gnn::ForwardOutputs fused;
  {
    dg::nn::ArenaScope arena;
    fused = model_->forward_outputs(merged);
  }
  const dg::nn::Matrix& pred = fused.prediction.value();
  const dg::nn::Matrix& emb = fused.embedding.value();
  for (std::size_t i = 0; i < live.size(); ++i) {
    const dg::gnn::GraphMember& m = merged.members[i];
    auto& slot = out.probabilities[index[i]];
    slot.resize(static_cast<std::size_t>(m.num_nodes));
    for (int v = 0; v < m.num_nodes; ++v)
      slot[static_cast<std::size_t>(v)] = pred.at(m.node_offset + v, 0);
    out.embeddings[index[i]] = dg::gnn::member_rows(emb, m);
  }
  return out;
}

std::unique_ptr<dg::gnn::Model> Engine::clone_model() const {
  return model_->clone();
}

int Engine::effective_iterations(int requested) const {
  const int effective = model_->effective_iterations(requested);
  if (requested > 0 && effective != requested && !iterations_warned_) {
    iterations_warned_ = true;
    dg::util::log_warn(model_->name(), ": inference iteration override T=", requested,
                       " ignored by non-recurrent model; runs fixed ", effective,
                       " layer(s)");
  }
  return effective;
}

bool Engine::save(const std::string& path) const {
  const auto params = model_->named_params();
  return dg::nn::save_params(path, params);
}

bool Engine::load(const std::string& path) {
  auto params = model_->named_params();
  return dg::nn::load_params(path, params);
}

}  // namespace deepgate
