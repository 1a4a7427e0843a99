// serve_stream: open loop. Requests arrive at a fixed absolute rate into
// serve::Server; every request is a distinct circuit that never repeats, and
// one in four asks for its embedding. A window holding more than one request
// pays CircuitGraph::merge, and the merge cache never hits; at this rate most
// windows close on their deadline holding one request.
//
// Each request is timed from when it was due, not from admission: the
// generator's lateness (including any time submit() blocked on a full queue)
// is added to the server-side admission -> fulfilled latency.
#include "bench.hpp"

#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

#include <atomic>
#include <future>
#include <thread>

namespace dgbench {

namespace {

/// Offered load, a fixed property of the workload (never derived from the run).
constexpr double kRequestsPerSecond = 200.0;
constexpr std::size_t kCorpusPatterns = 100000;
constexpr std::size_t kTailWindow = 1000;
constexpr std::size_t kStreamPatterns = 4096;

struct Stream {
  Served served;
  std::vector<CircuitGraph> circuits;  ///< one per request, in arrival order
  std::vector<bool> want_embedding;
};

std::size_t request_count(const Args& args) {
  return static_cast<std::size_t>(kRequestsPerSecond * args.seconds + 0.5);
}

Stream build_stream(const Args& args, Tracer& tr) {
  Stream s;
  s.served = train_served(kCorpusPatterns, args.threads, tr);
  const std::size_t n = request_count(args);
  dg::data::Dataset ds = family_corpus((n + 3) / 4, kStreamPatterns, args.seed + 202, tr);
  check(ds.graphs.size() >= n, "stream corpus smaller than the request count");
  s.circuits = std::move(ds.graphs);
  s.circuits.resize(n);
  // Interleave the families so arrivals mix them (the corpus is family-major).
  std::vector<CircuitGraph> mixed;
  mixed.reserve(n);
  dg::util::Rng rng(args.seed * 13 + 1);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (const std::size_t i : order) mixed.push_back(std::move(s.circuits[i]));
  s.circuits = std::move(mixed);
  // Exactly one request in each group of four asks for its embedding.
  s.want_embedding.assign(n, false);
  for (std::size_t b = 0; b < n; b += 4)
    s.want_embedding[std::min(n - 1, b + rng.next_below(4))] = true;
  return s;
}

}  // namespace

Result run_serve_stream(const Args& args, Tracer& tr) {
  Result r;
  init_per_layer(r);
  const int root = tr.on() ? tr.begin("bench.serve_stream", "bench") : -1;

  double setup_s = 0.0;
  Stream st = timed_setup<Stream>([&] { return build_stream(args, tr); }, &setup_s);
  const deepgate::Engine& engine = *st.served.engine;
  const std::size_t n = st.circuits.size();

  deepgate::serve::ServerOptions opts;  // library defaults, lanes from --lanes
  opts.lanes = args.lanes;

  std::vector<std::future<deepgate::serve::Response>> futures(n);
  std::vector<double> lag(n, 0.0);
  std::vector<Clock::time_point> due(n);
  dg::obs::Snapshot lanes_snapshot;
  deepgate::serve::Stats stats;
  Clock::time_point anchor;
  const ObsDelta obs0 = obs_now();
  RssPeak rss;
  Clock::time_point start;
  double wall = 0.0;
  {
    Scope measured(tr, "bench.measure", "bench");
    deepgate::serve::Server server(engine, opts);
    if (tr.on()) {
      dg::obs::trace_clear();
      dg::obs::trace_set_enabled(true);
      anchor = Clock::now();
      dg::obs::trace_instant("bench.anchor", "bench");
    }
    start = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / kRequestsPerSecond);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
      {
        Scope s(tr, "bench.wait_due", "bench.idle");
        std::this_thread::sleep_until(due[i]);
      }
      Scope s(tr, "serve.submit", "serve");
      futures[i] = server.submit({&st.circuits[i], st.want_embedding[i]});
      lag[i] = seconds_between(due[i], Clock::now());
      if ((i + 1) % kTailWindow == 0) rss.take();
    }
    {
      Scope s(tr, "bench.wait_responses", "bench.idle");
      for (auto& f : futures) f.wait();
    }
    wall = seconds_between(start, Clock::now());
    rss.take();
    rss.stop();
    lanes_snapshot = dg::obs::snapshot();  // the lane gauge goes away at shutdown
    server.shutdown(/*drain=*/true);
    stats = server.stats();
    if (tr.on()) dg::obs::trace_set_enabled(false);
  }
  const ObsDelta obs = obs_since(obs0);

  // Accounting straight from Server::stats().
  r.attempted = n;
  check(stats.submitted == n, "server admitted " + std::to_string(stats.submitted) + " of " +
                                  std::to_string(n) + " requests");
  check(stats.submitted == stats.served + stats.cancelled + stats.failed,
        "submitted != served + cancelled + failed");
  r.failed = stats.cancelled + stats.failed + stats.rejected_overload + stats.rejected_stopped;

  std::vector<deepgate::serve::Response> resp(n);
  std::vector<double> latency, queue_ms, service_ms;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    resp[i] = futures[i].get();  // throws ServeError for a failed request
    latency.push_back(lag[i] + resp[i].latency_seconds);
    queue_ms.push_back(1e3 * resp[i].queue_seconds);
    service_ms.push_back(1e3 * resp[i].service_seconds);
    nodes += static_cast<std::size_t>(st.circuits[i].num_nodes);
  }

  {
    Scope s(tr, "bench.check_batch_of_one", "bench");
    std::atomic<std::size_t> bad{0};
    for_each_index(n, [&](std::size_t i) {
      const deepgate::BatchInference one = engine.infer_batch({&st.circuits[i]});
      const bool emb_ok = !st.want_embedding[i] || bitwise_equal(one.embeddings[0], resp[i].embedding);
      if (!bitwise_equal(one.probabilities[0], resp[i].probabilities) || !emb_ok) bad.fetch_add(1);
    });
    check(bad.load() == 0, std::to_string(bad.load()) +
                               " responses differ from Engine::infer_batch on the circuit alone");
  }
  {
    Scope s(tr, "bench.check_oracles", "bench");
    std::vector<const CircuitGraph*> graphs;
    std::vector<std::vector<float>> preds;
    for (std::size_t i = 0; i < n; ++i) {
      graphs.push_back(&st.circuits[i]);
      preds.push_back(resp[i].probabilities);
    }
    double worst = 0.0;
    // Every fourth circuit: the sim layer is checked, and the run stays short.
    std::vector<const CircuitGraph*> sampled;
    for (std::size_t i = 0; i < n; i += 4) sampled.push_back(graphs[i]);
    const std::size_t covered = check_labels_exact(sampled, kStreamPatterns, &worst);
    const double served_err = eq8_error(graphs, preds);
    const double baseline = fit_type_mean(st.served.train).error(graphs);
    check(served_err < baseline, "served Eq. 8 error " + std::to_string(served_err) +
                                     " does not beat the per-type mean " + std::to_string(baseline));
    r.notes.push_back("exact-probability oracle: " + std::to_string(covered) + " of " +
                      std::to_string(sampled.size()) + " sampled stream circuits, worst gap " +
                      std::to_string(worst));
    r.notes.push_back("Eq. 8 error of served responses: " + std::to_string(served_err) +
                      ", per-type mean " + std::to_string(baseline));
  }
  if (root >= 0) tr.end(root);

  double pct = 0.0;
  // The tail is the median over consecutive windows of kTailWindow requests
  // of each window's tail percentile: a stall of the machine moves one
  // window's figure, not the reported one.
  std::vector<double> window_tails;
  for (std::size_t w = 0; w + kTailWindow <= latency.size() || w == 0; w += kTailWindow) {
    const std::size_t end = latency.size() - w < 2 * kTailWindow ? latency.size() : w + kTailWindow;
    window_tails.push_back(tail({latency.begin() + static_cast<std::ptrdiff_t>(w),
                                 latency.begin() + static_cast<std::ptrdiff_t>(end)},
                                &pct));
    if (end == latency.size()) break;
  }
  const double tail_s = median(window_tails);
  r.notes.push_back("offered " + std::to_string(kRequestsPerSecond) + " requests/s; " +
                    std::to_string(n) + " latency samples, tail: median of " +
                    std::to_string(window_tails.size()) + " windows' p" +
                    std::to_string(static_cast<int>(pct)) + "; generator lag p99 " +
                    std::to_string(1e3 * quantile(lag, 0.99)) + " ms; served " +
                    std::to_string(stats.served) + ", rejected " +
                    std::to_string(stats.rejected_overload + stats.rejected_stopped) +
                    ", cancelled " + std::to_string(stats.cancelled) + ", failed " +
                    std::to_string(stats.failed));
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["peak_rss_mb"] = {rss.stop(), "MB"};
  r.end_to_end["nodes_per_s"] = {static_cast<double>(nodes) / wall, "nodes/s"};
  r.end_to_end["latency_p50_ms"] = {1e3 * median(latency), "ms"};
  set_layer(r, "bench.latency_tail_ms", 1e3 * tail_s);

  if (tr.on()) {
    set_layer(r, "serve.queue_wait_ms.p50", quantile(queue_ms, 0.5));
    set_layer(r, "serve.queue_wait_ms.p99", quantile(queue_ms, 0.99));
    set_layer(r, "serve.service_ms.p50", quantile(service_ms, 0.5));
    set_layer(r, "serve.service_ms.p99", quantile(service_ms, 0.99));
    const double batches = static_cast<double>(std::max<std::uint64_t>(1, stats.batches));
    set_layer(r, "serve.batch_graphs.mean", static_cast<double>(stats.served) / batches);
    set_layer(r, "serve.batch_nodes.mean", static_cast<double>(stats.nodes_served) / batches);
    set_layer(r, "serve.windows.deadline", static_cast<double>(stats.close_deadline));
    set_layer(r, "serve.windows.budget", static_cast<double>(stats.close_budget));
    set_layer(r, "serve.windows.max_graphs", static_cast<double>(stats.close_max_graphs));
    set_layer(r, "serve.lanes.utilization", lanes_snapshot.gauge_value("serve.lanes.utilization"));
    std::vector<double> lag_ms;
    for (const double l : lag) lag_ms.push_back(1e3 * l);
    set_layer(r, "bench.generator_lag_ms.p99", quantile(lag_ms, 0.99));
    set_layer(r, "bench.latency_samples", static_cast<double>(n));
    set_layer(r, "bench.latency_p99_ms", 1e3 * quantile(latency, 0.99));

    // The server's own merge / forward spans, copied from its trace ring onto
    // one track per lane thread, placed on the benchmark's clock through the
    // anchor marker recorded when tracing was switched on.
    const std::vector<dg::obs::TraceEvent> events = dg::obs::trace_events();
    std::int64_t anchor_ns = 0;
    for (const auto& e : events)
      if (std::string(e.name) == "bench.anchor") anchor_ns = e.start_ns;
    std::map<std::uint32_t, int> track_of;
    std::map<int, std::string> tracks{{0, "generator"}};
    double merge_s = 0.0, forward_s = 0.0;
    for (const auto& e : events) {
      const std::string name = e.name;
      if (e.dur_ns < 0 || (name != "serve.merge" && name != "serve.forward")) continue;
      auto [it, fresh] = track_of.emplace(e.tid, 1 + static_cast<int>(track_of.size()));
      if (fresh) tracks[it->second] = "serve lane " + std::to_string(it->second);
      const Clock::time_point s0 = anchor + std::chrono::nanoseconds(e.start_ns - anchor_ns);
      tr.add(name == "serve.merge" ? "gnn.merge" : "gnn.forward", "gnn", it->second, s0,
             s0 + std::chrono::nanoseconds(e.dur_ns));
      (name == "serve.merge" ? merge_s : forward_s) += 1e-9 * static_cast<double>(e.dur_ns);
    }
    set_layer(r, "gnn.merge_ms.per_batch", 1e3 * merge_s / batches);
    set_layer(r, "gnn.batch_nodes.mean", static_cast<double>(stats.nodes_served) / batches);
    set_layer(r, "gnn.forward_us.per_node",
              1e6 * forward_s / static_cast<double>(std::max<std::uint64_t>(1, stats.nodes_served)));
    finish_per_layer(r, tr, obs, wall, static_cast<double>(nodes) / wall);
    write_trace(args, tr, r, tracks);
  }
  return r;
}

}  // namespace dgbench
