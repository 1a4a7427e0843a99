// Shared pieces of the repository benchmark: arguments, the result record,
// sample statistics, the in-memory span recorder, seeded inputs, the
// independent output oracles and the four workload entry points.
//
// The benchmark reaches the library only through its public calls
// (deepgate::Engine, BatchRunner, serve::Server, IncrementalSession,
// prepare / prepare_dataset and the gnn / sim / synth / aig functions those
// are built from). It sets no DEEPGATE_* knob.
#pragma once

#include "core/deepgate.hpp"
#include "gnn/circuit_graph.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dgbench {

using Clock = std::chrono::steady_clock;
using dg::gnn::CircuitGraph;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -- Arguments and result ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;        ///< --short: tiny inputs, every check, seconds of work
  /// util pool lanes (capped at nproc); 0 picks the workload's default:
  /// one lane, since on a shared 4-vCPU host train_corpus rounds of one seed
  /// took 0.89 to 1.12 s from run to run at two lanes and 1.43 to 1.50 s at
  /// one; up to four for serve_stream, whose timed work runs on the serve
  /// lanes, which never use the pool (its lanes speed up set-up only).
  int threads = 0;
  int lanes = 2;             ///< serve::Server worker lanes (capped at nproc)
};

/// Set-up repetitions per run; setup_s is their median. At least
/// kSetupReps, more while they have taken less than kSetupSeconds in all
/// (a set-up of a quarter second, timed three times, spread 0.20 between
/// runs), at most kSetupMaxReps.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 15;
constexpr double kSetupSeconds = 2.0;
/// Where the traced run writes its Chrome trace, relative to the checkout.
constexpr const char* kTraceDir = ".bench_build/dgbench_out";

/// A failed output check. Thrown out of a workload; main() reports it and
/// exits non-zero without printing a result.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void check(bool ok, const std::string& what);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;  ///< human-readable lines printed before the JSON
};

// -- Sample statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// The tail reported as bench.latency_tail_ms: p90, or the highest percentile
/// below it that keeps at least ten samples beyond it; the median below 40
/// samples, where no tail percentile is meaningful. `pct` receives the
/// percentile used. (p99 swung by half between runs of one seed on a shared
/// 4-vCPU machine; it is reported per layer as bench.latency_p99_ms.)
double tail(const std::vector<double>& v, double* pct);
double mean(const std::vector<double>& v);

/// Resident set size sampled every few milliseconds on a thread of its own
/// while the measured phase runs. `peak_rss_mb` is the median over the run's
/// operations (serve_stream: windows of requests) of the peak sampled during
/// each: the peak of one taped training step or one pass depends on how the
/// allocator spread work over threads, and the median of many is steady.
class RssPeak {
 public:
  RssPeak();
  ~RssPeak() { stop(); }
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;
  /// Close one operation: record the peak since the previous call.
  void take();
  /// Ends sampling (idempotent) and returns the median of the recorded peaks.
  double stop();

 private:
  void sample();
  std::atomic<double> peak_mb_{0.0};
  std::vector<double> peaks_;
  std::atomic<bool> done_{false};
  std::thread sampler_;  // declared last: it reads the members above
};

// -- Tracing -----------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its own calls into each layer's public functions; the
/// recorder keeps the open-span stack per track so every span knows its
/// parent, and computes per-layer self time (a span's duration minus the part
/// its children cover).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int track = 0;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer's origin
    double end = 0.0;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  /// Open a span on `track` (0 = the benchmark's main thread); returns its id.
  int begin(const std::string& name, const std::string& layer, int track = 0);
  void end(int id);
  /// Record a closed span (e.g. one copied from the program's own trace ring).
  void add(const std::string& name, const std::string& layer, int track,
           Clock::time_point start, Clock::time_point end);
  /// Named work counters recorded beside the spans (e.g. gate-patterns
  /// simulated), so per-layer rates are measured where the work happens.
  void count(const std::string& name, double v) {
    if (on_) counters_[name] += v;
  }
  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double now() const { return seconds_between(origin_, Clock::now()); }
  double at(Clock::time_point t) const { return seconds_between(origin_, t); }

  /// Sum of self time per layer over `track`'s spans.
  std::map<std::string, double> self_time(int track) const;
  /// Total and count of the spans named `name`.
  double total(const std::string& name, std::size_t* count = nullptr) const;
  std::vector<double> durations(const std::string& name) const;

  bool write_chrome(const std::string& path, const std::map<int, std::string>& track_names) const;
  /// "layer  self_s  share" rows of `track`.
  std::string self_time_table(int track) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<int, std::vector<int>> open_;  ///< per-track stack of open span ids
  std::map<std::string, double> counters_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, const char* layer, int track = 0)
      : t_(t), id_(t.on() ? t.begin(name, layer, track) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// -- Inputs ------------------------------------------------------------------

/// Model and training schedule of the served model. d = 32 and T = 10 are
/// the repository's "small" bench scale; the schedule is short and fixed so
/// set-up stays a few seconds.
/// Sub-circuits per family in the served model's training corpus. The short
/// mode keeps it too, so its quality checks hold the same bar.
constexpr std::size_t kCorpusPerFamily = 12;
deepgate::Options served_model_options(std::uint64_t seed);
deepgate::TrainConfig served_train_config(std::uint64_t seed, int threads);

/// A seeded corpus of dataset-family sub-circuits built by
/// deepgate::prepare_dataset with the shard cache off: the Table I family
/// envelopes, with windows capped at kMaxCorpusNodes gate-graph nodes and
/// kMaxCorpusLevels levels.
constexpr std::size_t kMaxCorpusNodes = 400;
constexpr int kMaxCorpusLevels = 16;
dg::data::Dataset family_corpus(std::size_t per_family, std::size_t patterns,
                                std::uint64_t seed, Tracer& tr);

/// A large design prepared one layer at a time (synth::optimize ->
/// aig::to_gate_graph -> sim::gate_graph_probabilities ->
/// CircuitGraph::from_gate_graph), the steps deepgate::prepare runs.
CircuitGraph prepare_layered(const dg::aig::Aig& aig, std::size_t patterns, std::uint64_t seed,
                             Tracer& tr);

/// Seed of the served model's corpus, weights and schedule, and of
/// train_corpus' held-out set: this part of set-up does the same work for
/// every --seed, which drives what is measured (catalog, requests, edits,
/// rounds).
constexpr std::uint64_t kServedSeed = 1;

/// The served model: a fresh Engine trained on a 90 % split of a
/// kCorpusPerFamily-per-family corpus drawn from kServedSeed.
struct Served {
  std::unique_ptr<deepgate::Engine> engine;
  std::vector<CircuitGraph> train, test;
};
Served train_served(std::size_t patterns, int threads, Tracer& tr);

/// Rebuild a graph from its defining fields only (types, levels, edges,
/// skip edges, labels) and finalize it — the from-scratch reference.
CircuitGraph rebuild(const CircuitGraph& g);

/// Disjoint union of `parts` as ONE plain graph (not a merged batch): ids
/// offset part by part, levels kept, then finalized.
CircuitGraph plain_union(const std::vector<const CircuitGraph*>& parts);

std::size_t total_nodes(const std::vector<const CircuitGraph*>& graphs);

// -- Oracles (computed by the benchmark, apart from the program) -------------

/// Exact signal probability of every node by exhaustive enumeration over the
/// gate graph's edge list (type 0 = PI, 1 = AND, 2 = NOT). Empty when the
/// graph has more than `max_inputs` primary inputs.
std::vector<double> exact_probabilities(const CircuitGraph& g, int max_inputs = 18);

/// Checks the labels of every graph with at most 18 inputs against the exact
/// probabilities: every node within 6 binomial sigma (plus three patterns of
/// slack for rare events) of the pattern count.
/// Returns the number of graphs covered; `worst_gap` receives the largest gap.
std::size_t check_labels_exact(const std::vector<const CircuitGraph*>& graphs,
                               std::size_t patterns, double* worst_gap);

/// Recompute longest-path levels from the edge list with a Kahn sweep; throws
/// CheckFailure on a cycle or on any node whose stored level differs.
void check_levels(const CircuitGraph& g);

/// Per-gate-type mean of the training labels: the trivial predictor the
/// served Eq. 8 error must beat.
struct TypeMean {
  std::vector<double> mean;  ///< per type id
  double error(const std::vector<const CircuitGraph*>& graphs) const;
};
TypeMean fit_type_mean(const std::vector<CircuitGraph>& train);

/// Eq. 8: mean |label - prediction| over every node of every graph.
double eq8_error(const std::vector<const CircuitGraph*>& graphs,
                 const std::vector<std::vector<float>>& predictions);

/// Runs body(i) for every i in [0, n) on a pool of its own with one lane per
/// core, at most four: for untimed checks only, so they stay short while the
/// timed work keeps --threads lanes.
void for_each_index(std::size_t n, const std::function<void(std::size_t)>& body);

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b);
bool bitwise_equal(const dg::nn::Matrix& a, const dg::nn::Matrix& b);

// -- Workloads ---------------------------------------------------------------

/// Measures set-up kSetupReps or more times (see kSetupSeconds) and returns
/// the median seconds. `build` runs one complete set-up; the last
/// repetition's product is kept.
template <class T, class Build>
T timed_setup(Build build, double* setup_s) {
  std::vector<double> times;
  T kept{};
  for (double total = 0.0; static_cast<int>(times.size()) < kSetupMaxReps &&
                           (static_cast<int>(times.size()) < kSetupReps || total < kSetupSeconds);) {
    const Clock::time_point t0 = Clock::now();
    kept = build();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
  *setup_s = median(times);
  return kept;
}

Result run_batch_catalog(const Args& args, Tracer& tr);
Result run_serve_stream(const Args& args, Tracer& tr);
Result run_edit_session(const Args& args, Tracer& tr);
Result run_train_corpus(const Args& args, Tracer& tr);

/// Per-layer counters read from obs::snapshot(), as deltas over a phase.
struct ObsDelta {
  std::uint64_t heap_allocs = 0, reuses = 0, forwards_full = 0, forwards_partial = 0;
  std::uint64_t merge_hits = 0, merge_misses = 0, memo_hits = 0, memo_misses = 0;
  std::uint64_t pool_steals = 0, pool_busy_ns = 0;
  int pool_lanes = 0;
  /// Share of the pool's lane time busy over `wall_s` seconds.
  double pool_utilization(double wall_s) const {
    return pool_lanes > 0 && wall_s > 0
               ? static_cast<double>(pool_busy_ns) * 1e-9 / (wall_s * pool_lanes)
               : 0.0;
  }
};
ObsDelta obs_now();
ObsDelta obs_since(const ObsDelta& start);

/// Fill every per-layer metric name with 0 (a layer the workload does not
/// exercise reads 0) so each traced run reports the full set; the workload
/// then overwrites what it measured.
void init_per_layer(Result& r);
void set_layer(Result& r, const std::string& name, double value);
/// Per-layer metrics every workload measures the same way: obs counter
/// deltas, set-up layer timings and the trace coverage of the wall time.
void finish_per_layer(Result& r, const Tracer& tr, const ObsDelta& measured,
                      double measured_wall_s, double nodes_per_s);
void write_trace(const Args& args, const Tracer& tr, Result& r,
                 const std::map<int, std::string>& tracks);

}  // namespace dgbench
