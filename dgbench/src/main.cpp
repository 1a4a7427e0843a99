// dgbench — the repository benchmark.
//
//   dgbench --workload <batch_catalog|serve_stream|edit_session|train_corpus>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--threads <n>] [--lanes <n>] [--short]
//
// Runs one workload on inputs made from the seed, checks its outputs, and
// prints one JSON object as the last line of standard output:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a library layer and reports the
// per-layer metrics, a Chrome trace file and a self-time table instead.
// A failed check prints the reason to standard error and exits with code 1.
#include "bench.hpp"

#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

namespace {

using namespace dgbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "dgbench: %s\nusage: dgbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads n] [--lanes n] [--short]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Result& r, bool trace) {
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--short") {
      args.quick = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--threads") {
      args.threads = std::atoi(argv[++i]);
    } else if (a == "--lanes") {
      args.lanes = std::atoi(argv[++i]);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  // Thread, lane and pool counts never exceed the machine's cores.
  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (args.threads == 0) args.threads = args.workload == "serve_stream" ? std::min(cores, 4) : 1;
  args.threads = std::clamp(args.threads, 1, cores);
  args.lanes = std::clamp(args.lanes, 1, cores);
  dg::util::set_global_threads(args.threads);

  Result (*run)(const Args&, Tracer&) = nullptr;
  if (args.workload == "batch_catalog") run = run_batch_catalog;
  if (args.workload == "serve_stream") run = run_serve_stream;
  if (args.workload == "edit_session") run = run_edit_session;
  if (args.workload == "train_corpus") run = run_train_corpus;
  if (run == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());

  try {
    Tracer tracer(args.trace);
    Result r = run(args, tracer);
    for (const std::string& line : r.notes) std::fprintf(stderr, "%s\n", line.c_str());
    std::fflush(stderr);
    print_result(r, args.trace);
    return 0;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "dgbench: CHECK FAILED (%s): %s\n", args.workload.c_str(), e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dgbench: error (%s): %s\n", args.workload.c_str(), e.what());
  }
  return 1;
}
