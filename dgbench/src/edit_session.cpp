// edit_session: closed loop. Seeded synth::random_mutation edits (insert,
// delete, rewire) go through an IncrementalSession, each followed by
// predict_incremental and every fourth also by embeddings_incremental.
//
// The design is one plain graph that holds independent small cones (dataset
// family sub-circuits) beside a large connected design (an array multiplier).
// Edits come in rounds of three: one in the large design, two among the
// cones, with the edit kind rotating, so both regimes and all three kinds
// are in every run in the same proportion; each edit
// draws only among its region's nodes, so the regions stay disconnected. The
// latency of one operation is that of a whole round: single edits range from
// a cheap insert to a delete that shifts every later node of its level, and
// the median of such a mixture jumps between its modes from seed to seed.
// Every nine edits (three rounds: each region and kind pair once) the session
// restarts from the starting design, untimed, so no edit stream can drift the
// design deeper or shallower over the run: with one session per run, edits/s
// split between seeds into two modes a third apart.
#include "bench.hpp"

#include "core/incremental_session.hpp"
#include "data/generators_large.hpp"
#include "synth/mutate.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <optional>

namespace dgbench {

namespace {

constexpr std::size_t kPatterns = 100000;
constexpr std::uint64_t kDesignSeed = 303;
constexpr std::size_t kEditsPerSession = 9;
constexpr int kRegionSmall = 0;
constexpr int kRegionLarge = 1;

struct Design {
  Served served;
  CircuitGraph graph;
  std::vector<int> region;  ///< per node
};

Design build_design(const Args& args, Tracer& tr) {
  Design d;
  d.served = train_served(kPatterns, args.threads, tr);
  // The starting design is the same for every seed (the seed drives the
  // edit stream): how much one edit dirties depends on
  // the level layout of the whole design, and a design redrawn per seed
  // moved edits/s by a fifth from seed to seed.
  const dg::data::Dataset cones = family_corpus(args.quick ? 2 : 8, kPatterns, kDesignSeed, tr);
  const CircuitGraph large =
      prepare_layered(dg::data::gen_multiplier(args.quick ? 4 : 8), kPatterns, kDesignSeed, tr);
  // The large design takes the low ids, the cones follow it.
  std::vector<const CircuitGraph*> parts{&large};
  for (const CircuitGraph& g : cones.graphs) parts.push_back(&g);
  d.graph = plain_union(parts);
  d.region.assign(static_cast<std::size_t>(large.num_nodes), kRegionLarge);
  d.region.resize(static_cast<std::size_t>(d.graph.num_nodes), kRegionSmall);
  return d;
}

/// The planner's view of one region: its nodes renumbered 0..k-1.
dg::synth::MutationContext region_context(const CircuitGraph& g, const std::vector<int>& region,
                                          int which, std::vector<int>& global_of) {
  const std::vector<int> fanouts = g.fanout_counts();
  dg::synth::MutationContext ctx;
  ctx.num_types = g.num_types;
  global_of.clear();
  for (int v = 0; v < g.num_nodes; ++v) {
    if (region[static_cast<std::size_t>(v)] != which) continue;
    global_of.push_back(v);
    ctx.type_id.push_back(g.type_id[static_cast<std::size_t>(v)]);
    ctx.level.push_back(g.level[static_cast<std::size_t>(v)]);
    ctx.fanout_count.push_back(fanouts[static_cast<std::size_t>(v)]);
  }
  ctx.num_nodes = static_cast<int>(global_of.size());
  return ctx;
}

}  // namespace

Result run_edit_session(const Args& args, Tracer& tr) {
  Result r;
  init_per_layer(r);
  const int root = tr.on() ? tr.begin("bench.edit_session", "bench") : -1;

  double setup_s = 0.0;
  Design design = timed_setup<Design>([&] { return build_design(args, tr); }, &setup_s);
  const deepgate::Engine& engine = *design.served.engine;
  std::vector<int> region;
  std::optional<deepgate::IncrementalSession> session;

  dg::util::Rng rng(args.seed * 101 + 7);
  std::vector<double> latency, edit_us, query_ms[2], dirty[2], full_ms;
  std::size_t rejected = 0, checks = 0, delivered_nodes = 0;
  double busy = 0.0, round_s = 0.0;
  const ObsDelta obs0 = obs_now();
  RssPeak rss;
  const Clock::time_point start = Clock::now();
  {
    Scope measured(tr, "bench.measure", "bench");
    for (std::size_t i = 0; i % kEditsPerSession != 0 || busy < args.seconds; ++i) {
      if (i % kEditsPerSession == 0) {
        Scope s(tr, "bench.session_restart", "bench");
        session.emplace(engine, design.graph);
        region = design.region;
        Scope f(tr, "gnn.capture_forward", "gnn");
        engine.predict_incremental(*session);  // the full capture forward, untimed
      }
      const int which = i % 3 == 0 ? kRegionLarge : kRegionSmall;
      // Kinds rotate so every three rounds hold each (region, kind) pair
      // equally often: a delete shifts every later node of its level and
      // costs several inserts, so a mix left to the draw moved edits/s by a
      // third from seed to seed.
      const auto wanted = static_cast<dg::synth::Mutation::Kind>((i / 3 + i % 3) % 3);
      std::vector<int> global_of;
      dg::synth::MutationContext ctx;
      {
        Scope s(tr, "bench.region_context", "bench");
        ctx = region_context(session->graph(), region, which, global_of);
      }
      // Draw until an edit sticks: the delta layer's cycle guard rejects some
      // rewires, and the planner expects the applier to skip those.
      double edit_s = 0.0;
      for (int attempt = 0;; ++attempt) {
        check(attempt < 10000, "no applicable edit of the wanted kind in 10000 draws");
        dg::synth::Mutation m;
        {
          Scope s(tr, "synth.random_mutation", "synth");
          m = dg::synth::random_mutation(ctx, rng);
        }
        if (m.kind != wanted) continue;
        std::vector<int> fanins;
        for (const int f : m.fanins) fanins.push_back(global_of[static_cast<std::size_t>(f)]);
        const Clock::time_point t0 = Clock::now();
        try {
          Scope s(tr, "gnn.delta_edit", "gnn");
          switch (m.kind) {
            case dg::synth::Mutation::Kind::kInsert:
              session->insert_node(m.type_id, fanins);
              region.push_back(which);
              break;
            case dg::synth::Mutation::Kind::kDelete: {
              const int v = global_of[static_cast<std::size_t>(m.node)];
              session->delete_node(v);
              region.erase(region.begin() + v);
              break;
            }
            case dg::synth::Mutation::Kind::kRewire:
              session->rewire_node(global_of[static_cast<std::size_t>(m.node)], fanins);
              break;
          }
          edit_s = seconds_between(t0, Clock::now());
          break;
        } catch (const std::invalid_argument&) {
          ++rejected;  // cycle-creating rewire: skipped, draw again
        }
      }
      const bool embed = i % 4 == 3;
      const Clock::time_point q0 = Clock::now();
      std::vector<float> probs;
      dg::nn::Matrix emb;
      {
        Scope s(tr, "gnn.predict_incremental", "gnn");
        probs = engine.predict_incremental(*session);
      }
      const int dirty_nodes = session->last_stats().dirty_nodes;
      if (embed) {
        Scope s(tr, "gnn.embeddings_incremental", "gnn");
        emb = engine.embeddings_incremental(*session);
      }
      const double query_s = seconds_between(q0, Clock::now());
      busy += edit_s + query_s;
      round_s += edit_s + query_s;
      if (i % 3 == 2) {
        latency.push_back(round_s);
        round_s = 0.0;
        rss.take();
      }
      edit_us.push_back(1e6 * edit_s);
      query_ms[which].push_back(1e3 * query_s);
      const CircuitGraph& g = session->graph();
      dirty[which].push_back(static_cast<double>(dirty_nodes) / g.num_nodes);
      delivered_nodes += static_cast<std::size_t>(g.num_nodes);
      ++r.attempted;

      // Sampled checks, outside the timed edit loop: levels and acyclicity
      // from the edge list, then the incremental outputs against a
      // from-scratch rebuild, bitwise.
      if (i % 64 == 5) {
        Scope s(tr, "bench.check_rebuild", "bench");
        check_levels(g);
        const CircuitGraph fresh = rebuild(g);
        const Clock::time_point f0 = Clock::now();
        std::vector<float> ref;
        {
          Scope f(tr, "gnn.full_forward", "gnn");
          ref = engine.predict_probabilities(fresh);
        }
        full_ms.push_back(1e3 * seconds_between(f0, Clock::now()));
        check(bitwise_equal(probs, ref), "incremental probabilities differ from a rebuild after edit " +
                                             std::to_string(i));
        if (embed)
          check(bitwise_equal(emb, engine.embeddings(fresh)),
                "incremental embeddings differ from a rebuild after edit " + std::to_string(i));
        ++checks;
      }
    }
  }
  const double wall = seconds_between(start, Clock::now());
  const double peak_mb = rss.stop();
  const ObsDelta obs = obs_since(obs0);
  {
    Scope s(tr, "bench.check_final", "bench");
    check_levels(session->graph());
    const std::vector<float> probs = engine.predict_incremental(*session);
    check(bitwise_equal(probs, engine.predict_probabilities(rebuild(session->graph()))),
          "final incremental probabilities differ from a rebuild");
    check(checks > 0, "no sampled rebuild check ran");
  }
  {
    // Quality: the served model on the design's original small cones must
    // beat the per-type mean predictor (labels of inserted nodes are 0.5
    // placeholders, so only the untouched corpus is scored).
    Scope s(tr, "bench.check_oracles", "bench");
    std::vector<const CircuitGraph*> test;
    for (const CircuitGraph& g : design.served.test) test.push_back(&g);
    std::vector<std::vector<float>> preds;
    for (const CircuitGraph* g : test) preds.push_back(engine.predict_probabilities(*g));
    const double served_err = eq8_error(test, preds);
    const double baseline = fit_type_mean(design.served.train).error(test);
    check(served_err < baseline, "served Eq. 8 error " + std::to_string(served_err) +
                                     " does not beat the per-type mean " + std::to_string(baseline));
    r.notes.push_back("Eq. 8 error on held-out corpus: served " + std::to_string(served_err) +
                      ", per-type mean " + std::to_string(baseline));
  }
  if (root >= 0) tr.end(root);

  double pct = 0.0;
  const double tail_s = tail(latency, &pct);
  r.notes.push_back("design: " + std::to_string(region.size()) + " nodes at the end, " +
                    std::to_string(std::count(region.begin(), region.end(), kRegionLarge)) +
                    " of them in the large design");
  r.notes.push_back("edits applied and queried: " + std::to_string(r.attempted) +
                    " (rejected rewires redrawn: " + std::to_string(rejected) +
                    "), rebuild checks: " + std::to_string(checks) + ", latency samples (rounds of three) " + std::to_string(latency.size()) + ", tail percentile p" +
                    std::to_string(static_cast<int>(pct)) + ", mean dirty fraction local " +
                    std::to_string(mean(dirty[0])) + " / global " + std::to_string(mean(dirty[1])));
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["peak_rss_mb"] = {peak_mb, "MB"};
  r.end_to_end["nodes_per_s"] = {static_cast<double>(delivered_nodes) / busy, "nodes/s"};
  r.end_to_end["latency_p50_ms"] = {1e3 * median(latency), "ms"};
  set_layer(r, "bench.latency_tail_ms", 1e3 * tail_s);

  if (tr.on()) {
    set_layer(r, "gnn.delta_edit_us.p50", median(edit_us));
    set_layer(r, "gnn.incremental_query_ms.local.p50", median(query_ms[kRegionSmall]));
    set_layer(r, "gnn.incremental_query_ms.global.p50", median(query_ms[kRegionLarge]));
    set_layer(r, "gnn.dirty_fraction.local", mean(dirty[kRegionSmall]));
    set_layer(r, "gnn.dirty_fraction.global", mean(dirty[kRegionLarge]));
    set_layer(r, "gnn.full_forward_ms", median(full_ms));
    set_layer(r, "gnn.forward_us.per_node",
              1e3 * median(full_ms) / static_cast<double>(session->graph().num_nodes));
    set_layer(r, "bench.latency_samples", static_cast<double>(latency.size()));
    set_layer(r, "bench.latency_p99_ms", 1e3 * quantile(latency, 0.99));
    finish_per_layer(r, tr, obs, wall, static_cast<double>(delivered_nodes) / busy);
    write_trace(args, tr, r, {{0, "main"}});
  }
  return r;
}

}  // namespace dgbench
