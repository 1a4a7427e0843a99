// batch_catalog: closed loop. BatchRunner::infer (probabilities and
// embeddings) replayed pass after pass over a fixed catalog of mixed
// circuits, one call per pass over the whole catalog. After the first pass
// the merge cache hits, so the time goes to the gnn forward, the nn kernels
// and the util pool fanning the node-budgeted batches across its lanes.
//
// Traced run: the benchmark drives plan_node_batches -> merge ->
// forward_outputs -> member_rows itself, one span per call, on the same pool
// lanes; its outputs must equal BatchRunner::infer bitwise.
#include "bench.hpp"

#include "core/batch_runner.hpp"
#include "data/generators_large.hpp"
#include "gnn/merge_cache.hpp"
#include "nn/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <atomic>

namespace dgbench {

namespace {

constexpr std::size_t kPatterns = 100000;
constexpr std::size_t kFamilyNodes = 10000;

struct Catalog {
  Served served;
  std::vector<CircuitGraph> family;  ///< dataset-family sub-circuits
  std::vector<CircuitGraph> large;   ///< squarer, multiplier, processor slice
  std::vector<const CircuitGraph*> pass;  ///< one pass over the catalog, in order
};

Catalog build_catalog(const Args& args, Tracer& tr) {
  Catalog c;
  c.served = train_served(kPatterns, args.threads, tr);
  // Family circuits in seeded order up to a fixed node count, so every seed's
  // catalog holds the same amount of work.
  dg::data::Dataset fam = family_corpus(args.quick ? 4 : 40, kPatterns, args.seed + 101, tr);
  dg::util::Rng pick(args.seed * 17 + 3);
  pick.shuffle(fam.graphs);
  const std::size_t target = args.quick ? 1000 : kFamilyNodes;
  for (std::size_t nodes = 0; CircuitGraph& g : fam.graphs) {
    if (nodes >= target) break;
    nodes += static_cast<std::size_t>(g.num_nodes);
    c.family.push_back(std::move(g));
  }
  const bool q = args.quick;
  c.large.push_back(prepare_layered(dg::data::gen_squarer(q ? 6 : 16), kPatterns, args.seed, tr));
  c.large.push_back(prepare_layered(dg::data::gen_multiplier(q ? 5 : 12), kPatterns, args.seed, tr));
  c.large.push_back(prepare_layered(
      dg::data::gen_processor_slice(q ? 8 : 16, q ? 1 : 2, args.seed), kPatterns, args.seed, tr));

  // Seeded order, large designs spread among the family circuits.
  for (const CircuitGraph& g : c.family) c.pass.push_back(&g);
  for (const CircuitGraph& g : c.large) c.pass.push_back(&g);
  dg::util::Rng rng(args.seed * 31 + 5);
  rng.shuffle(c.pass);
  return c;
}

/// The traced twin of BatchRunner::infer: the same plan, merge, fused forward
/// and scatter, each call spanned on the track of the pool chunk that ran it
/// (1 + chunk). As in BatchRunner, a chunk claims batches until none are left
/// and the forward's kernels fan out over the pool from inside it.
class TracedInfer {
 public:
  TracedInfer(const deepgate::Engine& engine, const deepgate::BatchOptions& opts, Tracer& tr)
      : model_(engine.model()), opts_(opts), cache_(opts.merge_cache_capacity), tr_(tr) {}

  deepgate::BatchInference operator()(const std::vector<const CircuitGraph*>& graphs) {
    deepgate::BatchInference out;
    out.probabilities.resize(graphs.size());
    out.embeddings.resize(graphs.size());
    std::vector<std::pair<std::size_t, std::size_t>> plan;
    {
      Scope s(tr_, "gnn.plan_node_batches", "gnn");
      plan = dg::gnn::plan_node_batches(graphs, opts_.node_budget, opts_.max_graphs);
    }
    const int workers = std::max(1, std::min<int>(opts_.threads, static_cast<int>(plan.size())));
    struct LaneSpan {
      const char* name;
      const char* layer;
      Clock::time_point start, end;
    };
    std::vector<std::vector<LaneSpan>> lane_spans(static_cast<std::size_t>(workers));
    std::atomic<std::size_t> next{0};
    {
      Scope s(tr_, "gnn.forward_outputs_batched", "util");
      dg::util::global_pool().run_chunks(workers, [&](int chunk) {
        dg::nn::NoGradGuard no_grad;
        std::vector<LaneSpan>& spans = lane_spans[static_cast<std::size_t>(chunk)];
        for (;;) {
          const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
          if (b >= plan.size()) break;
          const auto [begin, end] = plan[b];
          const Clock::time_point t0 = Clock::now();
          std::shared_ptr<const CircuitGraph> merged;
          const CircuitGraph* g = graphs[begin];
          if (end - begin > 1) {
            merged = cache_.merged(std::vector<const CircuitGraph*>(
                graphs.begin() + static_cast<std::ptrdiff_t>(begin),
                graphs.begin() + static_cast<std::ptrdiff_t>(end)));
            g = merged.get();
          }
          const Clock::time_point t1 = Clock::now();
          dg::gnn::ForwardOutputs fo;
          {
            dg::nn::ArenaScope arena;
            fo = model_.forward_outputs(*g);
          }
          const Clock::time_point t2 = Clock::now();
          for (std::size_t i = begin; i < end; ++i) {
            dg::nn::Matrix pred = fo.prediction.value();
            dg::nn::Matrix emb = fo.embedding.value();
            if (merged) {
              pred = dg::gnn::member_rows(fo.prediction.value(), merged->members[i - begin]);
              emb = dg::gnn::member_rows(fo.embedding.value(), merged->members[i - begin]);
            }
            std::vector<float>& p = out.probabilities[i];
            p.resize(static_cast<std::size_t>(pred.rows()));
            for (int v = 0; v < pred.rows(); ++v) p[static_cast<std::size_t>(v)] = pred.at(v, 0);
            out.embeddings[i] = std::move(emb);
          }
          const Clock::time_point t3 = Clock::now();
          if (merged) spans.push_back({"gnn.merge", "gnn", t0, t1});
          spans.push_back({"gnn.forward_outputs", "gnn", t1, t2});
          spans.push_back({"gnn.member_rows", "gnn", t2, t3});
          nodes_ += static_cast<std::size_t>(g->num_nodes);
          ++batches_;
        }
      });
    }
    for (std::size_t lane = 0; lane < lane_spans.size(); ++lane)
      for (const LaneSpan& s : lane_spans[lane])
        tr_.add(s.name, s.layer, 1 + static_cast<int>(lane), s.start, s.end);
    return out;
  }

  std::size_t batches() const { return batches_; }
  std::size_t nodes() const { return nodes_; }

 private:
  const dg::gnn::Model& model_;
  deepgate::BatchOptions opts_;
  dg::gnn::MergeCache cache_;
  Tracer& tr_;
  std::atomic<std::size_t> nodes_{0}, batches_{0};
};

bool same(const deepgate::BatchInference& a, const deepgate::BatchInference& b) {
  if (a.probabilities.size() != b.probabilities.size()) return false;
  for (std::size_t i = 0; i < a.probabilities.size(); ++i)
    if (!bitwise_equal(a.probabilities[i], b.probabilities[i]) ||
        !bitwise_equal(a.embeddings[i], b.embeddings[i]))
      return false;
  return true;
}

}  // namespace

Result run_batch_catalog(const Args& args, Tracer& tr) {
  Result r;
  init_per_layer(r);
  const int root = tr.on() ? tr.begin("bench.batch_catalog", "bench") : -1;

  double setup_s = 0.0;
  Catalog cat = timed_setup<Catalog>([&] { return build_catalog(args, tr); }, &setup_s);
  const deepgate::Engine& engine = *cat.served.engine;

  deepgate::BatchOptions opts;  // library defaults, pool lanes from --threads
  opts.threads = args.threads;
  const deepgate::BatchRunner runner(engine, opts);
  TracedInfer traced(engine, opts, tr);

  // Warm-up pass through BatchRunner::infer: fills the merge cache and gives
  // the reference outputs every later pass must reproduce bitwise.
  const deepgate::BatchInference ref = runner.infer(cat.pass);
  if (tr.on()) check(same(traced(cat.pass), ref), "traced pass differs from BatchRunner::infer");

  std::vector<double> latencies;
  std::size_t nodes = 0;
  double busy = 0.0;
  const ObsDelta obs0 = obs_now();
  RssPeak rss;
  const Clock::time_point start = Clock::now();
  {
    Scope measured(tr, "bench.measure", "bench");
    while (seconds_between(start, Clock::now()) < args.seconds) {
      const Clock::time_point t0 = Clock::now();
      const deepgate::BatchInference out = tr.on() ? traced(cat.pass) : runner.infer(cat.pass);
      const double dt = seconds_between(t0, Clock::now());
      latencies.push_back(dt);
      busy += dt;
      nodes += total_nodes(cat.pass);
      r.attempted += cat.pass.size();
      rss.take();
      Scope s(tr, "bench.check_pass", "bench");
      check(same(out, ref), "a pass differs from the first pass bitwise");
    }
  }
  const double wall = seconds_between(start, Clock::now());
  const double peak_mb = rss.stop();
  const ObsDelta obs = obs_since(obs0);

  // Checks, outside the measured loop.
  {
    Scope s(tr, "bench.check_batch_of_one", "bench");
    // Batch-of-one invariance: every circuit alone through Engine::infer_batch.
    std::atomic<std::size_t> bad{0};
    for_each_index(cat.pass.size(), [&](std::size_t i) {
      const deepgate::BatchInference one = engine.infer_batch({cat.pass[i]});
      if (!bitwise_equal(one.probabilities[0], ref.probabilities[i]) ||
          !bitwise_equal(one.embeddings[0], ref.embeddings[i]))
        bad.fetch_add(1);
    });
    check(bad.load() == 0, std::to_string(bad.load()) +
                               " circuits differ between the batch and Engine::infer_batch alone");
  }
  std::vector<const CircuitGraph*> family;
  std::vector<std::vector<float>> family_pred;
  for (std::size_t i = 0; i < cat.pass.size(); ++i) {
    const CircuitGraph* g = cat.pass[i];
    if (g < cat.large.data() || g >= cat.large.data() + cat.large.size()) {
      family.push_back(g);
      family_pred.push_back(ref.probabilities[i]);
    }
  }
  {
    Scope s(tr, "bench.check_oracles", "bench");
    double worst = 0.0;
    std::vector<const CircuitGraph*> labelled = family;
    for (const CircuitGraph& g : cat.served.train) labelled.push_back(&g);
    const std::size_t covered = check_labels_exact(labelled, kPatterns, &worst);
    const double served_err = eq8_error(family, family_pred);
    const double baseline = fit_type_mean(cat.served.train).error(family);
    check(served_err < baseline, "served Eq. 8 error " + std::to_string(served_err) +
                                     " does not beat the per-type mean " + std::to_string(baseline));
    r.notes.push_back("exact-probability oracle: " + std::to_string(covered) + " of " +
                      std::to_string(labelled.size()) + " circuits, worst gap " +
                      std::to_string(worst));
    r.notes.push_back("Eq. 8 error on the catalog's family circuits: served " +
                      std::to_string(served_err) + ", per-type mean " + std::to_string(baseline));
  }
  if (root >= 0) tr.end(root);

  double pct = 0.0;
  const double tail_s = tail(latencies, &pct);
  r.notes.push_back("latency samples (one BatchRunner::infer call each): " +
                    std::to_string(latencies.size()) + ", tail percentile p" +
                    std::to_string(static_cast<int>(pct)));
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["peak_rss_mb"] = {peak_mb, "MB"};
  r.end_to_end["nodes_per_s"] = {static_cast<double>(nodes) / busy, "nodes/s"};
  r.end_to_end["latency_p50_ms"] = {1e3 * median(latencies), "ms"};
  set_layer(r, "bench.latency_tail_ms", 1e3 * tail_s);

  if (tr.on()) {
    std::size_t plans = 0;
    const double plan_s = tr.total("gnn.plan_node_batches", &plans);
    const double batches = static_cast<double>(std::max<std::size_t>(1, traced.batches()));
    set_layer(r, "gnn.plan_ms.per_call", plans > 0 ? 1e3 * plan_s / static_cast<double>(plans) : 0);
    set_layer(r, "gnn.merge_ms.per_batch", 1e3 * tr.total("gnn.merge") / batches);
    set_layer(r, "gnn.scatter_ms.per_batch", 1e3 * tr.total("gnn.member_rows") / batches);
    set_layer(r, "gnn.batch_nodes.mean", static_cast<double>(traced.nodes()) / batches);
    set_layer(r, "gnn.forward_us.per_node",
              1e6 * tr.total("gnn.forward_outputs") /
                  static_cast<double>(std::max<std::size_t>(1, traced.nodes())));
    set_layer(r, "bench.latency_samples", static_cast<double>(latencies.size()));
    set_layer(r, "bench.latency_p99_ms", 1e3 * quantile(latencies, 0.99));
    finish_per_layer(r, tr, obs, wall, static_cast<double>(nodes) / busy);
    std::map<int, std::string> tracks{{0, "main"}};
    for (int lane = 0; lane < args.threads; ++lane)
      tracks[1 + lane] = "pool chunk " + std::to_string(lane);
    write_trace(args, tr, r, tracks);
  }
  return r;
}

}  // namespace dgbench
