// train_corpus: rounds of deepgate::prepare_dataset (shard cache off), then
// Engine::train for a fixed number of epochs on a fresh model, then
// Engine::evaluate on a held-out set prepared during set-up. The only
// workload whose timed code runs the data / sim layers and the taped
// autograd path.
#include "bench.hpp"

#include <cmath>

namespace dgbench {

namespace {

constexpr std::size_t kPatterns = 100000;

}  // namespace

Result run_train_corpus(const Args& args, Tracer& tr) {
  Result r;
  init_per_layer(r);
  const int root = tr.on() ? tr.begin("bench.train_corpus", "bench") : -1;

  double setup_s = 0.0;
  const std::vector<CircuitGraph> held_out = timed_setup<std::vector<CircuitGraph>>(
      [&] { return family_corpus(args.quick ? 4 : 24, kPatterns, kServedSeed + 404, tr).graphs; },
      &setup_s);
  std::vector<const CircuitGraph*> held;
  for (const CircuitGraph& g : held_out) held.push_back(&g);

  const std::size_t per_family = 8;
  std::vector<double> latency, build_s;
  std::size_t nodes = 0;
  double busy = 0.0;
  const ObsDelta obs0 = obs_now();
  RssPeak rss;
  const Clock::time_point start = Clock::now();
  {
    Scope measured(tr, "bench.measure", "bench");
    for (std::uint64_t round = 0; busy < args.seconds; ++round) {
      const std::uint64_t round_seed = args.seed * 1000 + round;
      const Clock::time_point t0 = Clock::now();
      const dg::data::Dataset ds = family_corpus(per_family, kPatterns, round_seed, tr);
      const Clock::time_point t1 = Clock::now();
      deepgate::Engine engine(served_model_options(round_seed));
      const deepgate::TrainConfig cfg = served_train_config(round_seed, args.threads);
      dg::gnn::TrainResult trained;
      {
        Scope s(tr, "gnn.train", "gnn");
        trained = engine.train(ds.graphs, cfg);
        tr.count("gnn.train.epochs", cfg.epochs);
      }
      double err = 0.0;
      {
        Scope s(tr, "gnn.evaluate", "gnn");
        err = engine.evaluate(held_out);
      }
      const double dt = seconds_between(t0, Clock::now());
      latency.push_back(dt);
      build_s.push_back(seconds_between(t0, t1));
      busy += dt;
      std::vector<const CircuitGraph*> prepared;
      for (const CircuitGraph& g : ds.graphs) prepared.push_back(&g);
      nodes += total_nodes(prepared);
      r.attempted += ds.graphs.size();
      rss.take();

      // Checks, outside the timed round.
      Scope s(tr, "bench.check_round", "bench");
      check(ds.graphs.size() == 4 * per_family, "prepare_dataset returned " +
                                                    std::to_string(ds.graphs.size()) + " circuits");
      const double baseline = fit_type_mean(ds.graphs).error(held);
      check(err < baseline, "held-out Eq. 8 error " + std::to_string(err) +
                                " does not beat the per-type mean " + std::to_string(baseline));
      check(trained.epoch_loss.size() == static_cast<std::size_t>(cfg.epochs) &&
                std::isfinite(trained.epoch_loss.back()),
            "training loss missing or not finite");
      // The costlier checks on every fourth round, to keep the run short:
      // the labels against exact probabilities, and Engine::evaluate against
      // the Eq. 8 error recomputed from per-circuit predictions.
      if (round % 4 != 0) continue;
      double worst = 0.0;
      check_labels_exact(prepared, kPatterns, &worst);
      std::vector<std::vector<float>> preds;
      for (const CircuitGraph* g : held) preds.push_back(engine.predict_probabilities(*g));
      const double recomputed = eq8_error(held, preds);
      check(std::fabs(recomputed - err) <= 1e-6,
            "Engine::evaluate " + std::to_string(err) + " vs recomputed " + std::to_string(recomputed));
      if (round == 0)
        r.notes.push_back("round 0: held-out Eq. 8 error " + std::to_string(err) +
                          ", per-type mean " + std::to_string(baseline) +
                          ", worst label gap to exact " + std::to_string(worst));
    }
  }
  const double wall = seconds_between(start, Clock::now());
  const double peak_mb = rss.stop();
  const ObsDelta obs = obs_since(obs0);
  if (root >= 0) tr.end(root);

  double pct = 0.0;
  const double tail_s = tail(latency, &pct);
  r.notes.push_back("rounds: " + std::to_string(latency.size()) + " of " +
                    std::to_string(4 * per_family) + " circuits, tail percentile p" +
                    std::to_string(static_cast<int>(pct)));
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["peak_rss_mb"] = {peak_mb, "MB"};
  r.end_to_end["nodes_per_s"] = {static_cast<double>(nodes) / busy, "nodes/s"};
  r.end_to_end["latency_p50_ms"] = {1e3 * median(latency), "ms"};
  set_layer(r, "bench.latency_tail_ms", 1e3 * tail_s);

  if (tr.on()) {
    set_layer(r, "bench.latency_samples", static_cast<double>(latency.size()));
    set_layer(r, "bench.latency_p99_ms", 1e3 * quantile(latency, 0.99));
    finish_per_layer(r, tr, obs, wall, static_cast<double>(nodes) / busy);
    set_layer(r, "data.build_s", median(build_s));
    write_trace(args, tr, r, {{0, "main"}});
  }
  return r;
}

}  // namespace dgbench
