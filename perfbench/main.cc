// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload serve|shard|cluster --seed N --seconds S
//             --trace 0|1 [--smoke] [--corrupt-one]
//
// --trace 0 measures the end-to-end metrics on a stack without any tap:
// set-up (median of several builds), single-client cold passes over the
// query stream, each from a fresh stack (median of the passes), then a
// closed-loop steady phase of S seconds replaying it. --trace 1 rebuilds
// the stack with timing taps at every layer boundary and reports the
// per-layer metrics. Every answer is checked against the closed-form oracle
// in both modes.
//
// Output: one "<name> <value> <unit>" line per metric, machine facts, and
// as the last line a JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit 0 when every gate passed, 1 on a gate failure, 2 on a
// usage or set-up error (no JSON then).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "parallel/thread_pool.h"
#include "phases.h"
#include "util/cache_info.h"
#include "util/simd.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool corrupt_one = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]);
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--corrupt-one") {
      args->corrupt_one = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete flag %s\n",
                   flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

void PrintMachine() {
  const scrack::CacheInfo cache = scrack::CacheInfo::Detect();
  const char* no_avx2 = std::getenv("SCRACK_NO_AVX2");
  const char* threads = std::getenv("SCRACK_THREADS");
  std::printf(
      "machine nproc=%ld l1=%zu l2=%zu l3=%zu avx2_compiled=%d "
      "avx2_dispatched=%d SCRACK_NO_AVX2=%s pool_threads=%d "
      "SCRACK_THREADS=%s build=%s\n",
      sysconf(_SC_NPROCESSORS_ONLN), cache.l1_bytes, cache.l2_bytes,
      cache.l3_bytes, scrack::simd::CompiledWithAvx2() ? 1 : 0,
      scrack::simd::Supported() ? 1 : 0, no_avx2 ? no_avx2 : "unset",
      scrack::ThreadPool::Shared().num_threads(), threads ? threads : "unset",
      PERFBENCH_BUILD_TYPE);
}

struct Inputs {
  Shape shape;
  std::vector<Value> values;
  std::vector<Query> stream;
  std::vector<Value> inserts;
};

Inputs MakeInputs(const Shape& shape, const Args& args) {
  Inputs in;
  in.shape = shape;
  in.values = MakePermutation(shape.n, args.seed);
  in.stream =
      MakeUniformStream(shape.n, shape.cold_queries, shape.width, args.seed);
  if (shape.insert_rate > 0) {
    // Enough for every steady phase of the run, with headroom.
    in.inserts = MakeInserts(
        shape.n,
        static_cast<int64_t>(shape.insert_rate * (args.seconds * 1.5 + 2)),
        args.seed);
  }
  return in;
}

/// Builds the stack `setup_repeats` times, each torn down before the next,
/// and keeps the last. The last `cold_passes` builds each run a cold pass,
/// appended to `passes`.
bool BuildAndRunCold(const Inputs& in, const Args& args, Tracer* tracer,
                     int cold_passes, Gate* gate,
                     std::vector<BuildTimes>* builds,
                     std::unique_ptr<Stack>* kept,
                     std::vector<ColdResult>* passes) {
  const int repeats = std::max(in.shape.setup_repeats, cold_passes);
  for (int r = 0; r < repeats; ++r) {
    kept->reset();
    auto stack = std::make_unique<Stack>();
    const scrack::Status built =
        BuildStack(in.shape, in.values, args.seed, tracer, stack.get());
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: build: %s\n", built.ToString().c_str());
      return false;
    }
    builds->push_back(stack->times);
    const int pass = r - (repeats - cold_passes);
    if (pass >= 0) {
      const bool corrupt = args.corrupt_one && pass == 0;
      if (tracer != nullptr) tracer->set_enabled(true);
      passes->push_back(RunCold(
          stack->engine.get(), in.stream, in.shape.n, tracer != nullptr,
          corrupt ? static_cast<int64_t>(in.stream.size() / 2) : -1, gate));
      if (tracer != nullptr) tracer->set_enabled(false);
    }
    *kept = std::move(stack);
  }
  return true;
}

double MedianOf(const std::vector<BuildTimes>& builds,
                double BuildTimes::*field) {
  std::vector<double> values;
  for (const BuildTimes& b : builds) values.push_back(b.*field);
  return Median(values);
}

double Us(double ns) { return ns * 1e-3; }

bool RunEndToEnd(const Inputs& in, const Args& args, Gate* gate,
                 std::vector<Metric>* out) {
  const Shape& shape = in.shape;
  std::vector<BuildTimes> builds;
  std::unique_ptr<Stack> stack;
  std::vector<ColdResult> passes;
  if (!BuildAndRunCold(in, args, nullptr, shape.cold_repeats, gate, &builds,
                       &stack, &passes)) {
    return false;
  }
  const InsertLedger ledger(in.inserts);
  SteadyOptions steady_options;
  steady_options.clients = shape.clients;
  steady_options.seconds = args.seconds;
  steady_options.insert_rate = shape.insert_rate;
  SteadyResult steady = RunSteady(stack->engine.get(), in.stream, shape.n,
                                  in.inserts, ledger, 0, steady_options, gate);
  const uint64_t final_sum = CheckQuiesced(stack->engine.get(), shape.n,
                                           in.inserts, steady.staged, gate);
  std::printf("checksum.cold %016llx\nchecksum.final %016llx\n",
              static_cast<unsigned long long>(passes.back().checksum),
              static_cast<unsigned long long>(final_sum));

  // Each cold pass yields its own total and p99; the medians over passes
  // are reported, so every figure is one a pass produced (or, for an even
  // count, the mean of the two middle ones).
  std::vector<double> cold_s, cold_p99;
  std::printf("cold.pass_s_p99_us");
  for (ColdResult& pass : passes) {
    cold_s.push_back(pass.total_s);
    cold_p99.push_back(Us(Percentile(&pass.latency_ns, 0.99)));
    std::printf(" %.4g/%.4g", cold_s.back(), cold_p99.back());
  }
  std::printf("\n");
  std::vector<Metric>& m = *out;
  m.push_back({"setup_s", MedianOf(builds, &BuildTimes::total_s), "s"});
  m.push_back({"cold_s", Median(cold_s), "s"});
  m.push_back({"cold_p99_us", Median(cold_p99), "us"});
  std::vector<double> qps, p50, p99;
  size_t samples = 0;
  for (SteadyWindow& w : steady.windows) {
    qps.push_back(Ratio(static_cast<double>(w.completed), w.seconds));
    p50.push_back(Us(Percentile(&w.latency_ns, 0.50)));
    p99.push_back(Us(Percentile(&w.latency_ns, 0.99)));
    samples += w.latency_ns.size();
  }
  std::printf("steady.window_qps");
  for (const double q : qps) std::printf(" %.6g", q);
  std::printf("\n");
  m.push_back({"qps", Median(qps), "1/s"});
  m.push_back({"p50_us", Median(p50), "us"});
  m.push_back({"p99_us", Median(p99), "us"});
  m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  // Reported, but outside the end-to-end contract: only `serve` writes,
  // and the error rate is 0 whenever the run passes its gate.
  std::printf("write_p99_us %.6g us (%zu inserts)\n",
              Us(Percentile(&steady.write_ns, 0.99)), steady.write_ns.size());
  std::printf("steady_samples %zu\ncold_samples %zu\n", samples,
              passes.back().latency_ns.size());
  return true;
}

bool RunTraced(const Inputs& in, const Args& args, Gate* gate,
               std::vector<Metric>* out) {
  const Shape& shape = in.shape;
  Tracer tracer(size_t{1} << 20);
  std::vector<BuildTimes> builds;
  std::unique_ptr<Stack> stack;
  std::vector<ColdResult> passes;
  if (!BuildAndRunCold(in, args, &tracer, 1, gate, &builds, &stack, &passes)) {
    return false;
  }
  const ColdResult& cold = passes.back();
  const std::vector<Span> cold_spans = tracer.Drain();
  scrack::SelectEngine* engine = stack->engine.get();
  const InsertLedger ledger(in.inserts);
  const scrack::EngineStats after_cold = engine->CurrentStats();

  // The steady phase runs untraced, then traced, half the steady time
  // each: the overhead of tracing is the difference in throughput.
  SteadyOptions options;
  options.clients = shape.clients;
  options.seconds = args.seconds / 2;
  options.insert_rate = shape.insert_rate;
  SteadyResult plain = RunSteady(engine, in.stream, shape.n, in.inserts,
                                 ledger, 0, options, gate);
  options.tracer = &tracer;
  tracer.set_enabled(true);
  SteadyResult traced = RunSteady(engine, in.stream, shape.n, in.inserts,
                                  ledger, plain.staged, options, gate);
  tracer.set_enabled(false);
  const double plain_qps =
      Ratio(static_cast<double>(plain.completed), plain.elapsed_s);
  const double traced_qps =
      Ratio(static_cast<double>(traced.completed), traced.elapsed_s);
  const int64_t steady_queries = plain.completed + traced.completed;
  const int64_t inserts = traced.staged;
  const std::vector<Span> steady_spans = tracer.Drain();
  const scrack::EngineStats after_steady = engine->CurrentStats();
  const std::vector<TransportTap::Frame> frames =
      stack->transport_tap != nullptr ? stack->transport_tap->TakeFrames()
                                      : std::vector<TransportTap::Frame>{};

  // One client, read-only, on the converged stack: with a single query in
  // flight every span inside a top-level span is its child.
  SteadyOptions single;
  single.seconds = std::max(0.2, args.seconds / 10);
  single.tracer = &tracer;
  tracer.set_enabled(true);
  RunSteady(engine, in.stream, shape.n, in.inserts, ledger, inserts, single,
            gate);
  tracer.set_enabled(false);
  const Layer epoch_layer = shape.nodes == 0 ? Layer::kTop : Layer::kNode;
  const Layer route_layer = shape.nodes == 0 ? Layer::kCount
                            : shape.tcp      ? Layer::kTransport
                                             : Layer::kNode;
  const Attribution attribution =
      Attribute(tracer.Drain(), epoch_layer, route_layer);
  CheckQuiesced(engine, shape.n, in.inserts, inserts, gate);

  const auto delta = [&](int64_t scrack::EngineStats::*field) {
    return static_cast<double>(after_steady.*field - after_cold.*field);
  };
  std::vector<int64_t> touched = cold.touched_per_query;
  touched.erase(std::remove(touched.begin(), touched.end(), 0), touched.end());
  const Index piece = static_cast<Index>(Percentile(&touched, 0.5));
  const IndexReplay index = ReplayIndex(in.stream, shape.n);
  const WireTimes wire = TimeWire(frames);
  const double queries = static_cast<double>(in.stream.size());
  const auto p = [](std::vector<double> v, double q) { return Percentile(&v, q); };

  std::vector<Metric>& m = *out;
  m.push_back({"kernel.touched", Ratio(static_cast<double>(cold.touched), queries), "count"});
  m.push_back({"kernel.swaps", Ratio(static_cast<double>(cold.swaps), queries), "count"});
  m.push_back({"kernel.steady_touched",
               Ratio(delta(&scrack::EngineStats::tuples_touched),
                     static_cast<double>(steady_queries)),
               "count"});
  m.push_back({"kernel.materialized",
               Ratio(delta(&scrack::EngineStats::materialized),
                     static_cast<double>(steady_queries)),
               "count"});
  m.push_back({"kernel.crack_ns_per_tuple",
               CrackNsPerTuple(in.values, std::max<Index>(piece, 1024),
                               in.stream),
               "ns"});
  m.push_back({"kernel.fold_ns_per_tuple",
               FoldNsPerTuple(in.values, shape.width), "ns"});
  m.push_back({"index.cracks", static_cast<double>(after_cold.cracks), "count"});
  m.push_back({"index.add_us.p50", index.add_p50_us, "us"});
  m.push_back({"index.add_us.p99", index.add_p99_us, "us"});
  m.push_back({"index.add_s.total", index.add_total_s, "s"});
  m.push_back({"index.find_ns", index.find_ns, "ns"});
  const std::vector<double> column_us = DurationsUs(cold_spans, Layer::kColumn);
  m.push_back({"column.exec_us.p50", p(column_us, 0.50), "us"});
  m.push_back({"column.exec_us.p99", p(column_us, 0.99), "us"});
  const double shared = delta(&scrack::EngineStats::shared_reads);
  m.push_back({"epoch.shared_frac",
               Ratio(shared, shared + delta(&scrack::EngineStats::exclusive_cracks)),
               "fraction"});
  m.push_back({"epoch.escalations_per_insert",
               Ratio(delta(&scrack::EngineStats::escalations),
                     static_cast<double>(inserts)),
               "count"});
  m.push_back({"epoch.self_us", attribution.epoch_self_us, "us"});
  const std::vector<double> stage_us = DurationsUs(steady_spans, Layer::kStage);
  m.push_back({"updates.stage_us.p50", p(stage_us, 0.50), "us"});
  m.push_back({"updates.stage_us.p99", p(stage_us, 0.99), "us"});
  m.push_back({"updates.backlog",
               static_cast<double>(inserts - after_steady.updates_merged),
               "count"});
  m.push_back({"router.prune_frac",
               shape.nodes > 0 ? 1 - attribution.router_fanout / shape.nodes : 0,
               "fraction"});
  m.push_back({"router.fanout", attribution.router_fanout, "count"});
  m.push_back({"router.self_us", attribution.router_self_us, "us"});
  m.push_back({"wire.bytes_per_query",
               Ratio(delta(&scrack::EngineStats::wire_bytes),
                     static_cast<double>(steady_queries)),
               "B"});
  m.push_back({"wire.encode_us", wire.encode_us, "us"});
  m.push_back({"wire.decode_us", wire.decode_us, "us"});
  const std::vector<double> call_us = DurationsUs(steady_spans, Layer::kTransport);
  m.push_back({"transport.call_us.p50", p(call_us, 0.50), "us"});
  m.push_back({"transport.call_us.p99", p(call_us, 0.99), "us"});
  m.push_back({"transport.hop_us", attribution.transport_hop_us, "us"});
  m.push_back({"transport.reconnects",
               static_cast<double>(after_steady.transport_reconnects), "count"});
  m.push_back({"transport.timeouts",
               static_cast<double>(after_steady.transport_timeouts), "count"});
  m.push_back({"transport.retries",
               static_cast<double>(after_steady.transport_retries), "count"});
  m.push_back({"node.exec_us",
               p(shape.nodes > 0 ? DurationsUs(steady_spans, Layer::kNode)
                                 : std::vector<double>{},
                 0.50),
               "us"});
  m.push_back({"setup.load_s", MedianOf(builds, &BuildTimes::load_s), "s"});
  m.push_back({"setup.partition_s", MedianOf(builds, &BuildTimes::partition_s), "s"});
  m.push_back({"setup.engine_s", MedianOf(builds, &BuildTimes::engine_s), "s"});
  m.push_back({"setup.listen_s", MedianOf(builds, &BuildTimes::listen_s), "s"});
  m.push_back({"setup.first_query_s",
               cold.latency_ns.empty() ? 0 : cold.latency_ns[0] * 1e-9, "s"});
  m.push_back({"harness.writer_late_us", Us(Percentile(&plain.late_ns, 0.99)), "us"});
  m.push_back({"write_p99_us", Us(Percentile(&plain.write_ns, 0.99)), "us"});
  m.push_back({"trace.overhead_frac", 1 - Ratio(traced_qps, plain_qps), "fraction"});
  std::printf("trace.dropped_spans %lld\ntrace.untraced_qps %.6g\n"
              "trace.traced_qps %.6g\n",
              static_cast<long long>(tracer.dropped()), plain_qps, traced_qps);
  // One stage span per insert of the traced half, or stage_us is skewed.
  std::printf("updates.stage_spans %zu\nupdates.traced_inserts %lld\n",
              stage_us.size(),
              static_cast<long long>(traced.staged - plain.staged));
  return true;
}

void PrintJson(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              gate.failed() == 0 ? "true" : "false",
              static_cast<long long>(gate.attempted.load()),
              static_cast<long long>(gate.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  Shape shape;
  if (!ParseArgs(argc, argv, &args) ||
      !ShapeFor(args.workload, args.smoke, &shape)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve|shard|cluster "
                 "--seed N --seconds S --trace 0|1 [--smoke] [--corrupt-one]\n");
    return 2;
  }
  const Inputs inputs = MakeInputs(shape, args);
  Gate gate;
  std::vector<Metric> metrics;
  const bool ran = args.trace == 0 ? RunEndToEnd(inputs, args, &gate, &metrics)
                                   : RunTraced(inputs, args, &gate, &metrics);
  if (!ran) return 2;
  for (const Metric& metric : metrics) {
    std::printf("%s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("error_rate %.6g fraction (%lld of %lld operations)\n",
              Ratio(static_cast<double>(gate.failed()),
                    static_cast<double>(gate.attempted.load())),
              static_cast<long long>(gate.failed()),
              static_cast<long long>(gate.attempted.load()));
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, args.smoke ? " smoke" : "");
  PrintMachine();
  PrintJson(gate, metrics);
  std::fflush(stdout);
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
