// Statistics, tracing, seeded inputs and per-layer bookkeeping shared by the
// four workloads.
#include "bench.hpp"

#include "aig/gate_graph.hpp"
#include "obs/obs.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "synth/sweep.hpp"
#include "util/thread_pool.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

namespace dgbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// -- Sample statistics -------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail(const std::vector<double>& v, double* pct) {
  double q = 0.5;
  if (v.size() >= 40) {
    // Ten samples beyond: q = 1 - 10/n, floored to a whole percent, capped at p90.
    q = std::min(0.90, std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(v.size()))) / 100.0);
  }
  if (pct != nullptr) *pct = 100.0 * q;
  return quantile(v, q);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

RssPeak::RssPeak() {
  // Hand set-up's freed heap back first, so the samples reflect what the
  // measured phase holds rather than where set-up garbage happened to land.
  malloc_trim(0);
  sample();
  sampler_ = std::thread([this] {
    while (!done_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      sample();
    }
  });
}

void RssPeak::take() {
  sample();
  peaks_.push_back(peak_mb_.exchange(0.0));
  sample();  // the next operation starts from what is resident now
}

double RssPeak::stop() {
  if (sampler_.joinable()) {
    done_.store(true, std::memory_order_release);
    sampler_.join();
    if (peaks_.empty()) take();
  }
  return median(peaks_);
}

void RssPeak::sample() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return;
  const double mb = static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                    (1024.0 * 1024.0);
  double seen = peak_mb_.load();
  while (mb > seen && !peak_mb_.compare_exchange_weak(seen, mb)) {
  }
}

// -- Tracer ------------------------------------------------------------------

int Tracer::begin(const std::string& name, const std::string& layer, int track) {
  std::vector<int>& stack = open_[track];
  Span s;
  s.name = name;
  s.layer = layer;
  s.track = track;
  s.parent = stack.empty() ? -1 : stack.back();
  s.start = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack.push_back(id);
  return id;
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now();
  std::vector<int>& stack = open_[s.track];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

void Tracer::add(const std::string& name, const std::string& layer, int track,
                 Clock::time_point start, Clock::time_point end) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.track = track;
  s.start = at(start);
  s.end = at(end);
  // Parent: the innermost span of the same track that contains this one.
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    const Span& p = spans_[static_cast<std::size_t>(i)];
    if (p.track == track && p.start <= s.start && s.end <= p.end) {
      s.parent = i;
      break;
    }
  }
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_time(int track) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.track == track && s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].track == track)
      out[spans_[i].layer] += std::max(0.0, spans_[i].end - spans_[i].start - child[i]);
  return out;
}

double Tracer::total(const std::string& name, std::size_t* count) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (s.name == name) {
      sum += s.end - s.start;
      ++n;
    }
  if (count != nullptr) *count = n;
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::map<int, std::string>& track_names) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [track, name] : track_names) {
    os << (first ? "" : ",\n") << R"({"ph": "M", "name": "thread_name", "pid": 1, "tid": )"
       << track << R"(, "args": {"name": ")" << name << "\"}}";
    first = false;
  }
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (first ? "" : ",\n") << R"({"ph": "X", "pid": 1, "tid": )" << s.track
       << R"(, "name": ")" << s.name << R"(", "cat": ")" << s.layer << "\"";
    std::snprintf(buf, sizeof(buf), "%.3f", s.start * 1e6);
    os << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.3f", (s.end - s.start) * 1e6);
    os << ", \"dur\": " << buf << R"(, "args": {"span": )" << i << ", \"parent\": " << s.parent
       << "}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::string Tracer::self_time_table(int track) const {
  const std::map<std::string, double> self = self_time(track);
  double wall = 0.0;
  for (const auto& [layer, t] : self) wall += t;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, t] : self) rows.emplace_back(t, layer);
  std::sort(rows.rbegin(), rows.rend());
  std::ostringstream os;
  char buf[160];
  for (const auto& [t, layer] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-14s %10.4f s  %6.2f %%\n", layer.c_str(), t,
                  wall > 0 ? 100.0 * t / wall : 0.0);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-14s %10.4f s\n", "total", wall);
  os << buf;
  return os.str();
}

// -- Inputs ------------------------------------------------------------------

deepgate::Options served_model_options(std::uint64_t seed) {
  deepgate::Options o;
  o.model.dim = 32;
  o.model.iterations = 10;
  o.model.mlp_hidden = 24;
  o.model.seed = seed * 7919 + 17;
  return o;
}

deepgate::TrainConfig served_train_config(std::uint64_t seed, int threads) {
  deepgate::TrainConfig c;
  c.epochs = 2;
  c.lr = 3e-3F;
  c.batch_circuits = 4;
  c.seed = seed + 3;
  c.threads = threads;
  return c;
}

dg::data::Dataset family_corpus(std::size_t per_family, std::size_t patterns,
                                std::uint64_t seed, Tracer& tr) {
  dg::data::DatasetConfig cfg = dg::data::default_dataset_config(dg::util::BenchScale::kTiny, seed);
  for (dg::data::FamilySpec& f : cfg.families) {
    f.num_subcircuits = per_family;
    // One size and depth cap for every family keeps the corpus' total work,
    // and so every timing, from swinging with the seed's few largest or
    // deepest windows (the level loop makes a deep circuit slow however
    // few its nodes).
    f.extract.max_nodes = std::min<std::size_t>(f.extract.max_nodes, kMaxCorpusNodes);
    f.extract.max_level = std::min(f.extract.max_level, kMaxCorpusLevels);
  }
  cfg.sim_patterns = patterns;
  dg::data::BuildOptions build;  // default: no shard cache directory, cache off
  Scope s(tr, "data.prepare_dataset", "data");
  return deepgate::prepare_dataset(cfg, build);
}

CircuitGraph prepare_layered(const dg::aig::Aig& aig, std::size_t patterns, std::uint64_t seed,
                             Tracer& tr) {
  dg::aig::Aig optimized;
  {
    Scope s(tr, "synth.optimize", "synth");
    optimized = dg::synth::optimize(aig);
    if (optimized.uses_constants()) optimized = dg::synth::drop_constant_outputs(optimized);
  }
  dg::aig::GateGraph g;
  {
    Scope s(tr, "aig.to_gate_graph", "aig");
    g = dg::aig::to_gate_graph(optimized);
  }
  std::vector<double> labels;
  {
    Scope s(tr, "sim.gate_graph_probabilities", "sim");
    labels = dg::sim::gate_graph_probabilities(g, patterns, seed);
  }
  tr.count("sim.gate_patterns", static_cast<double>(g.size()) * static_cast<double>(patterns));
  Scope s(tr, "gnn.from_gate_graph", "gnn");
  return CircuitGraph::from_gate_graph(g, labels);
}

Served train_served(std::size_t patterns, int threads, Tracer& tr) {
  Served s;
  const dg::data::Dataset corpus = family_corpus(kCorpusPerFamily, patterns, kServedSeed, tr);
  corpus.split(0.9, kServedSeed + 11, s.train, s.test);
  s.engine = std::make_unique<deepgate::Engine>(served_model_options(kServedSeed));
  const deepgate::TrainConfig cfg = served_train_config(kServedSeed, threads);
  Scope span(tr, "gnn.train", "gnn");
  s.engine->train(s.train, cfg);
  tr.count("gnn.train.epochs", cfg.epochs);
  return s;
}

void for_each_index(std::size_t n, const std::function<void(std::size_t)>& body) {
  const int lanes = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  dg::util::ThreadPool pool(lanes);
  std::atomic<std::size_t> next{0};
  pool.run_chunks(lanes, [&](int) {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i);
  });
}

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

CircuitGraph plain_union(const std::vector<const CircuitGraph*>& parts) {
  CircuitGraph u;
  u.num_types = parts.empty() ? 3 : parts.front()->num_types;
  for (const CircuitGraph* p : parts) {
    const int off = u.num_nodes;
    u.type_id.insert(u.type_id.end(), p->type_id.begin(), p->type_id.end());
    u.level.insert(u.level.end(), p->level.begin(), p->level.end());
    u.labels.insert(u.labels.end(), p->labels.begin(), p->labels.end());
    for (const auto& [a, b] : p->edges) u.edges.emplace_back(a + off, b + off);
    for (dg::analysis::SkipEdge e : p->skip_edges) {
      e.src += off;
      e.dst += off;
      u.skip_edges.push_back(e);
    }
    u.num_nodes += p->num_nodes;
  }
  u.finalize(parts.empty() ? 8 : parts.front()->pe_L);
  return u;
}

std::size_t total_nodes(const std::vector<const CircuitGraph*>& graphs) {
  std::size_t n = 0;
  for (const CircuitGraph* g : graphs) n += static_cast<std::size_t>(g->num_nodes);
  return n;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool bitwise_equal(const dg::nn::Matrix& a, const dg::nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r)
    if (std::memcmp(a.row_ptr(r), b.row_ptr(r), static_cast<std::size_t>(a.cols()) * sizeof(float)) != 0)
      return false;
  return true;
}

// -- obs counters ------------------------------------------------------------

ObsDelta obs_now() {
  const dg::obs::Snapshot snap = dg::obs::snapshot();
  ObsDelta d;
  d.heap_allocs = snap.counter_value("nn.arena.heap_allocs");
  d.reuses = snap.counter_value("nn.arena.reuses");
  d.forwards_full = snap.counter_value("gnn.forwards.full");
  d.forwards_partial = snap.counter_value("gnn.forwards.partial");
  d.merge_hits = snap.counter_value("gnn.merge_cache.hits");
  d.merge_misses = snap.counter_value("gnn.merge_cache.misses");
  d.memo_hits = snap.counter_value("gnn.memo.hits");
  d.memo_misses = snap.counter_value("gnn.memo.misses");
  // Pool lane counters straight from the pool, so utilization covers the
  // measured phase rather than the pool's lifetime.
  if (dg::util::ThreadPool* pool = dg::util::global_pool_if_created()) {
    std::uint64_t busy = 0;
    for (const dg::util::PoolLaneStats& l : pool->lane_stats()) {
      busy += l.busy_ns;
      d.pool_steals += l.steals;
    }
    d.pool_busy_ns = busy;
    d.pool_lanes = pool->num_threads();
  }
  return d;
}

ObsDelta obs_since(const ObsDelta& s) {
  ObsDelta n = obs_now();
  ObsDelta d;
  d.heap_allocs = n.heap_allocs - s.heap_allocs;
  d.reuses = n.reuses - s.reuses;
  d.forwards_full = n.forwards_full - s.forwards_full;
  d.forwards_partial = n.forwards_partial - s.forwards_partial;
  d.merge_hits = n.merge_hits - s.merge_hits;
  d.merge_misses = n.merge_misses - s.merge_misses;
  d.memo_hits = n.memo_hits - s.memo_hits;
  d.memo_misses = n.memo_misses - s.memo_misses;
  d.pool_steals = n.pool_steals - s.pool_steals;
  d.pool_busy_ns = n.pool_busy_ns - s.pool_busy_ns;
  d.pool_lanes = n.pool_lanes;
  return d;
}

// -- Per-layer metrics -------------------------------------------------------

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, as listed in BENCHMARK.json.
const LayerMetric kLayerMetrics[] = {
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.service_ms.p50", "ms"},
    {"serve.service_ms.p99", "ms"},
    {"serve.batch_graphs.mean", "graphs"},
    {"serve.batch_nodes.mean", "nodes"},
    {"serve.windows.deadline", "count"},
    {"serve.windows.budget", "count"},
    {"serve.windows.max_graphs", "count"},
    {"serve.lanes.utilization", "ratio"},
    {"bench.generator_lag_ms.p99", "ms"},
    {"gnn.merge_ms.per_batch", "ms"},
    {"gnn.merge_cache.hit_rate", "ratio"},
    {"gnn.merge_cache.lookups", "count"},
    {"gnn.plan_ms.per_call", "ms"},
    {"gnn.batch_nodes.mean", "nodes"},
    {"gnn.forward_us.per_node", "us"},
    {"gnn.scatter_ms.per_batch", "ms"},
    {"gnn.forwards.full", "count"},
    {"gnn.forwards.partial", "count"},
    {"gnn.delta_edit_us.p50", "us"},
    {"gnn.incremental_query_ms.local.p50", "ms"},
    {"gnn.incremental_query_ms.global.p50", "ms"},
    {"gnn.dirty_fraction.local", "ratio"},
    {"gnn.dirty_fraction.global", "ratio"},
    {"gnn.full_forward_ms", "ms"},
    {"gnn.memo.hit_rate", "ratio"},
    {"gnn.train.epoch_s", "s"},
    {"nn.arena.heap_allocs.per_forward", "count"},
    {"nn.arena.reuses.per_forward", "count"},
    {"util.pool.utilization", "ratio"},
    {"util.pool.steals", "count"},
    {"sim.gate_patterns_per_s", "1/s"},
    {"synth.optimize_ms.per_circuit", "ms"},
    {"aig.to_gate_graph_ms.per_circuit", "ms"},
    {"gnn.graph_build_ms.per_circuit", "ms"},
    {"data.build_s", "s"},
    {"bench.latency_samples", "count"},
    {"bench.latency_tail_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.traced_nodes_per_s", "nodes/s"},
    {"bench.trace_coverage", "ratio"},
};

double per_call_ms(const Tracer& tr, const char* name) {
  std::size_t n = 0;
  const double t = tr.total(name, &n);
  return n == 0 ? 0.0 : 1e3 * t / static_cast<double>(n);
}

}  // namespace

void init_per_layer(Result& r) {
  for (const LayerMetric& m : kLayerMetrics) r.per_layer[m.name] = Metric{0.0, m.unit};
}

void set_layer(Result& r, const std::string& name, double value) {
  auto it = r.per_layer.find(name);
  if (it == r.per_layer.end()) throw std::logic_error("unknown per-layer metric " + name);
  it->second.value = value;
}

void finish_per_layer(Result& r, const Tracer& tr, const ObsDelta& d, double wall_s,
                      double nodes_per_s) {
  const double forwards = static_cast<double>(d.forwards_full + d.forwards_partial);
  set_layer(r, "gnn.forwards.full", static_cast<double>(d.forwards_full));
  set_layer(r, "gnn.forwards.partial", static_cast<double>(d.forwards_partial));
  if (forwards > 0) {
    set_layer(r, "nn.arena.heap_allocs.per_forward", static_cast<double>(d.heap_allocs) / forwards);
    set_layer(r, "nn.arena.reuses.per_forward", static_cast<double>(d.reuses) / forwards);
  }
  const std::uint64_t lookups = d.merge_hits + d.merge_misses;
  set_layer(r, "gnn.merge_cache.lookups", static_cast<double>(lookups));
  if (lookups > 0)
    set_layer(r, "gnn.merge_cache.hit_rate",
              static_cast<double>(d.merge_hits) / static_cast<double>(lookups));
  const std::uint64_t memo = d.memo_hits + d.memo_misses;
  if (memo > 0)
    set_layer(r, "gnn.memo.hit_rate", static_cast<double>(d.memo_hits) / static_cast<double>(memo));
  set_layer(r, "util.pool.steals", static_cast<double>(d.pool_steals));
  set_layer(r, "util.pool.utilization", d.pool_utilization(wall_s));

  set_layer(r, "synth.optimize_ms.per_circuit", per_call_ms(tr, "synth.optimize"));
  set_layer(r, "aig.to_gate_graph_ms.per_circuit", per_call_ms(tr, "aig.to_gate_graph"));
  set_layer(r, "gnn.graph_build_ms.per_circuit", per_call_ms(tr, "gnn.from_gate_graph"));
  const double sim_s = tr.total("sim.gate_graph_probabilities");
  if (sim_s > 0) set_layer(r, "sim.gate_patterns_per_s", tr.counter("sim.gate_patterns") / sim_s);
  if (tr.counter("gnn.train.epochs") > 0)
    set_layer(r, "gnn.train.epoch_s", tr.total("gnn.train") / tr.counter("gnn.train.epochs"));
  const std::vector<double> builds = tr.durations("data.prepare_dataset");
  if (!builds.empty()) set_layer(r, "data.build_s", median(builds));
  set_layer(r, "bench.traced_nodes_per_s", nodes_per_s);

  // Track 0 holds the whole run under one root span, so its layers' self
  // times sum to the traced wall time; the share outside the benchmark's own
  // code is the part the library layers account for.
  const std::map<std::string, double> self = tr.self_time(0);
  double wall = 0.0, bench = 0.0;
  for (const auto& [layer, t] : self) {
    wall += t;
    if (layer.rfind("bench", 0) == 0) bench += t;
  }
  if (wall > 0) set_layer(r, "bench.trace_coverage", (wall - bench) / wall);
}

void write_trace(const Args& args, const Tracer& tr, Result& r,
                 const std::map<int, std::string>& tracks) {
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  const std::string path = std::string(kTraceDir) + "/" + args.workload + ".trace.json";
  if (tr.write_chrome(path, tracks))
    r.notes.push_back("chrome trace: " + path);
  else
    r.notes.push_back("could not write " + path);
  for (const auto& [track, name] : tracks) {
    r.notes.push_back("self time per layer, track " + name + ":");
    std::istringstream rows(tr.self_time_table(track));
    for (std::string line; std::getline(rows, line);) r.notes.push_back(line);
  }
}

}  // namespace dgbench
