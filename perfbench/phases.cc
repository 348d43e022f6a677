#include "phases.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "distributed/coordinator_engine.h"
#include "distributed/tcp_transport.h"
#include "harness/engine_factory.h"
#include "parallel/epoch_engine.h"
#include "parallel/sharded_engine.h"

namespace perfbench {

using scrack::Column;
using scrack::CoordinatorEngine;
using scrack::EngineConfig;
using scrack::EngineStats;
using scrack::QueryOutput;
using scrack::SelectEngine;
using scrack::Status;

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Per-partition seed decorrelation, as the engine factory does it for
/// sharded(...) and coord(...), so both stacks crack identically.
EngineConfig PartConfig(const EngineConfig& config, int index) {
  EngineConfig part = config;
  part.seed = config.seed + static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ULL;
  return part;
}

std::unique_ptr<SelectEngine> Tap(std::unique_ptr<SelectEngine> engine,
                                  Layer layer, int node, Tracer* tracer) {
  if (tracer == nullptr) return engine;
  return std::make_unique<EngineTap>(std::move(engine), layer, node, tracer);
}

/// epoch(crack) over one partition, tapped at the node and the column.
Status MakeEpochCrack(const Column* part, int index, const EngineConfig& config,
                      Tracer* tracer, std::unique_ptr<SelectEngine>* out) {
  std::unique_ptr<SelectEngine> crack;
  SCRACK_RETURN_NOT_OK(scrack::CreateEngine("crack", part, config, &crack));
  auto epoch = std::make_unique<scrack::EpochEngine>(
      Tap(std::move(crack), Layer::kColumn, index, tracer));
  *out = Tap(std::move(epoch), Layer::kNode, index, tracer);
  return Status::OK();
}

}  // namespace

Status BuildStack(const Shape& shape, const std::vector<Value>& values,
                  uint64_t seed, Tracer* tracer, Stack* out) {
  EngineConfig config = EngineConfig::Detected();
  config.seed = seed;
  const int64_t loading = NowNs();
  out->column = Column(values);
  const Column* base = &out->column;
  const int64_t start = NowNs();
  out->times.load_s = Seconds(start - loading);
  std::unique_ptr<SelectEngine> engine;
  if (shape.nodes == 0) {
    std::unique_ptr<SelectEngine> crack;
    SCRACK_RETURN_NOT_OK(scrack::CreateEngine("crack", base, config, &crack));
    engine = std::make_unique<scrack::EpochEngine>(
        Tap(std::move(crack), Layer::kColumn, -1, tracer));
    out->times.engine_s = Seconds(NowNs() - start);
  } else if (!shape.tcp) {
    int64_t inner_ns = 0;  // Create() calls the factory on this thread
    SCRACK_RETURN_NOT_OK(scrack::ShardedEngine::Create(
        base, shape.nodes,
        [&](const Column* part, int index, std::unique_ptr<SelectEngine>* e) {
          const int64_t t = NowNs();
          const Status made =
              MakeEpochCrack(part, index, PartConfig(config, index), tracer, e);
          inner_ns += NowNs() - t;
          return made;
        },
        "epoch(crack)", &engine));
    out->times.engine_s = Seconds(inner_ns);
    out->times.partition_s = Seconds(NowNs() - start - inner_ns);
  } else {
    std::vector<Value> lowers =
        CoordinatorEngine::ComputeLowers(*base, shape.nodes);
    std::vector<std::vector<Value>> slices =
        CoordinatorEngine::DealSlices(*base, lowers);
    if (static_cast<int>(lowers.size()) != shape.nodes) {
      return Status::Internal("node boundaries collapsed");
    }
    const int64_t dealt = NowNs();
    out->times.partition_s = Seconds(dealt - start);
    for (int i = 0; i < shape.nodes; ++i) {
      std::unique_ptr<scrack::StorageNode> node;
      SCRACK_RETURN_NOT_OK(scrack::StorageNode::Create(
          Column(std::move(slices[static_cast<size_t>(i)])), i,
          [&](const Column* part, int index, std::unique_ptr<SelectEngine>* e) {
            return MakeEpochCrack(part, index, PartConfig(config, index),
                                  tracer, e);
          },
          &node));
      out->nodes.push_back(std::move(node));
    }
    const int64_t built = NowNs();
    out->times.engine_s = Seconds(built - dealt);
    std::vector<scrack::TcpEndpoint> endpoints;
    for (auto& node : out->nodes) {
      auto server = std::make_unique<scrack::TcpNodeServer>();
      SCRACK_RETURN_NOT_OK(server->Start(node.get(), 0));
      endpoints.push_back(scrack::TcpEndpoint{"127.0.0.1", server->port()});
      out->servers.push_back(std::move(server));
    }
    std::unique_ptr<scrack::Transport> transport =
        std::make_unique<scrack::TcpTransport>(endpoints,
                                               scrack::TcpTransportOptions{});
    if (tracer != nullptr) {
      auto tap = std::make_unique<TransportTap>(std::move(transport), tracer,
                                                /*max_frames=*/4096);
      out->transport_tap = tap.get();
      transport = std::move(tap);
    }
    SCRACK_RETURN_NOT_OK(CoordinatorEngine::CreateOverTransport(
        std::move(lowers), std::move(transport), "epoch(crack)", shape.nodes,
        &engine));
    out->times.listen_s = Seconds(NowNs() - built);
  }
  out->engine = Tap(std::move(engine), Layer::kTop, -1, tracer);
  out->times.total_s = Seconds(NowNs() - loading);
  return Status::OK();
}

void Gate::Report(const std::string& what) {
  if (reported.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: gate failure: %s\n", what.c_str());
  }
}

Answer AnswerOf(const Query& query, const QueryOutput& output, bool with_sum) {
  switch (query.mode) {
    case OutputMode::kMaterialize:
      return Answer{output.result.count(), with_sum ? output.result.Sum() : 0};
    case OutputMode::kCount:
      return Answer{output.count, 0};
    default:
      return Answer{output.count, output.sum};
  }
}

namespace {

std::string Describe(const Query& q, const Answer& got, const Answer& lo,
                     const Answer& hi) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[%lld, %lld) mode %s: got count %lld sum %lld, want count "
                "%lld..%lld sum %lld..%lld",
                static_cast<long long>(q.low), static_cast<long long>(q.high),
                scrack::OutputModeName(q.mode),
                static_cast<long long>(got.count),
                static_cast<long long>(got.sum),
                static_cast<long long>(lo.count),
                static_cast<long long>(hi.count),
                static_cast<long long>(lo.sum), static_cast<long long>(hi.sum));
  return buf;
}

/// Checks one answer against [lo, hi] (count always, sum when checked);
/// returns false and records the failure otherwise.
bool Check(const Query& q, const QueryOutput& output, const Answer& got,
           bool sum_checked, const Answer& lo, const Answer& hi, Gate* gate) {
  if (output.degraded_nodes > 0) {
    gate->degraded.fetch_add(1);
    gate->Report("degraded answer for " + Describe(q, got, lo, hi));
    return false;
  }
  const bool count_ok = got.count >= lo.count && got.count <= hi.count;
  const bool sum_ok = !sum_checked || (got.sum >= lo.sum && got.sum <= hi.sum);
  if (count_ok && sum_ok) return true;
  gate->mismatches.fetch_add(1);
  gate->Report(Describe(q, got, lo, hi));
  return false;
}

Answer Plus(Answer a, const Answer& b) {
  a.count += b.count;
  a.sum += b.sum;
  return a;
}

}  // namespace

ColdResult RunCold(SelectEngine* engine, const std::vector<Query>& stream,
                   Index n, bool per_query_stats, int64_t corrupt_at,
                   Gate* gate) {
  ColdResult cold;
  cold.latency_ns.reserve(stream.size());
  int64_t total_ns = 0;
  EngineStats before = per_query_stats ? engine->CurrentStats() : EngineStats{};
  for (size_t i = 0; i < stream.size(); ++i) {
    const Query& q = stream[i];
    QueryOutput output;
    const int64_t start = NowNs();
    const Status status = engine->Execute(q, &output);
    const int64_t took = NowNs() - start;
    cold.latency_ns.push_back(took);
    total_ns += took;
    gate->attempted.fetch_add(1);
    if (per_query_stats) {
      const EngineStats after = engine->CurrentStats();
      const int64_t touched = after.tuples_touched - before.tuples_touched;
      cold.touched += touched;
      cold.swaps += after.swaps - before.swaps;
      cold.touched_per_query.push_back(touched);
      before = after;
    }
    if (!status.ok()) {
      gate->errors.fetch_add(1);
      gate->Report("cold query failed: " + status.ToString());
      continue;
    }
    Answer got = AnswerOf(q, output, /*with_sum=*/true);
    if (static_cast<int64_t>(i) == corrupt_at) got.count += 1;
    const Answer want = BaseAnswer(n, q.low, q.high);
    Check(q, output, got, q.mode != OutputMode::kCount, want, want, gate);
    cold.checksum = MixAnswer(cold.checksum, static_cast<int64_t>(i), got);
  }
  cold.total_s = Seconds(total_ns);
  return cold;
}

namespace {

// Cache-line aligned: each client writes its own log on every query.
struct alignas(64) ClientLog {
  std::vector<uint32_t> latency_ns;  ///< pre-touched; first `used` valid
  size_t used = 0;
  int64_t completed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Samples [window_begin[w], window_begin[w + 1]) completed in window w.
  size_t window_begin[kSteadyWindows + 1] = {};
  int64_t window_completed[kSteadyWindows] = {};
};

}  // namespace

SteadyResult RunSteady(SelectEngine* engine, const std::vector<Query>& stream,
                       Index n, const std::vector<Value>& inserts,
                       const InsertLedger& ledger, int64_t staged_before,
                       const SteadyOptions& options, Gate* gate) {
  const int clients = options.clients;
  // Room for 500k queries/s per client; a faster client keeps counting
  // queries but stops recording latencies. Pre-touched so peak memory
  // does not depend on throughput.
  const auto capacity = static_cast<size_t>(
      std::min(options.seconds * 5e5 + 1e4, 3e7));
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  for (ClientLog& log : logs) log.latency_ns.assign(capacity, 0);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> staged{staged_before};
  const int64_t planned = static_cast<int64_t>(inserts.size());
  std::atomic<int64_t> start_ns{0};
  const auto window_ns = static_cast<int64_t>(options.seconds * 1e9 / kSteadyWindows);

  const auto client = [&](int c) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    size_t pos = stream.size() * static_cast<size_t>(c) /
                 static_cast<size_t>(clients);
    int64_t materialized = 0;
    int window = 0;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    log.start_ns = NowNs();
    const int64_t phase_start = start_ns.load();
    while (!stop.load(std::memory_order_relaxed)) {
      if (options.tracer != nullptr && (log.completed & 255) == 0 &&
          options.tracer->ThreadFill() >= 0.9) {
        stop.store(true);
        break;
      }
      const Query& q = stream[pos];
      pos = pos + 1 == stream.size() ? 0 : pos + 1;
      const int64_t staged_at_start = staged.load(std::memory_order_acquire);
      QueryOutput output;
      const int64_t t0 = NowNs();
      const Status status = engine->Execute(q, &output);
      const int64_t t1 = NowNs();
      const int64_t staged_at_end = staged.load(std::memory_order_acquire);
      while (window + 1 < kSteadyWindows &&
             t1 - phase_start >= (window + 1) * window_ns) {
        log.window_begin[++window] = log.used;
      }
      ++log.window_completed[window];
      if (log.used < log.latency_ns.size()) {
        log.latency_ns[log.used++] = static_cast<uint32_t>(
            std::min<int64_t>(t1 - t0, UINT32_MAX));
      }
      ++log.completed;
      if (!status.ok()) {
        gate->errors.fetch_add(1);
        gate->Report("steady query failed: " + status.ToString());
        continue;
      }
      // Materialized sums cost a pass over the result; check every 16th.
      const bool with_sum = q.mode == OutputMode::kSum ||
                            (q.mode == OutputMode::kMaterialize &&
                             ++materialized % 16 == 0);
      const Answer got = AnswerOf(q, output, with_sum);
      const Answer base = BaseAnswer(n, q.low, q.high);
      // The insert in flight when the query ended may already be visible.
      const int64_t visible = std::min(planned, staged_at_end + 1);
      Check(q, output, got, with_sum,
            Plus(base, ledger.Staged(q.low, q.high, staged_at_start)),
            Plus(base, ledger.Staged(q.low, q.high, visible)), gate);
    }
    log.end_ns = NowNs();
    // Counted once at the end: a shared counter bumped per query would
    // bounce its cache line between the clients.
    gate->attempted.fetch_add(log.completed);
    while (window < kSteadyWindows) log.window_begin[++window] = log.used;
  };

  SteadyResult result;
  const auto writer = [&] {
    // Wake at each due time instead of spinning; a 1 ns timer slack keeps
    // the kernel from batching the wake-ups.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const auto period_ns = static_cast<int64_t>(1e9 / options.insert_rate);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const int64_t first_due = start_ns.load();
    int64_t previous_done = first_due;
    for (int64_t k = staged_before; k < planned; ++k) {
      const int64_t due = first_due + (k - staged_before) * period_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      if (stop.load(std::memory_order_relaxed)) break;
      const int64_t woke = NowNs();
      const Status status = engine->StageInsert(inserts[static_cast<size_t>(k)]);
      const int64_t done = NowNs();
      gate->attempted.fetch_add(1);
      if (!status.ok()) {
        gate->errors.fetch_add(1);
        gate->Report("insert failed: " + status.ToString());
      }
      staged.store(k + 1, std::memory_order_release);
      result.late_ns.push_back(woke - std::max(due, previous_done));
      result.write_ns.push_back(done - due);
      previous_done = done;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  if (options.insert_rate > 0) {
    result.write_ns.reserve(static_cast<size_t>(planned));
    result.late_ns.reserve(static_cast<size_t>(planned));
    threads.emplace_back(writer);
  }
  start_ns.store(NowNs());
  go.store(true, std::memory_order_release);
  const int64_t deadline =
      start_ns.load() + static_cast<int64_t>(options.seconds * 1e9);
  while (!stop.load() && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  int64_t first = INT64_MAX;
  int64_t last = 0;
  for (const ClientLog& log : logs) {
    result.completed += log.completed;
    first = std::min(first, log.start_ns);
    last = std::max(last, log.end_ns);
  }
  result.elapsed_s = Seconds(last - first);
  result.windows.resize(kSteadyWindows);
  for (int w = 0; w < kSteadyWindows; ++w) {
    SteadyWindow& window = result.windows[static_cast<size_t>(w)];
    // The last window runs until the final client returns.
    window.seconds = w + 1 < kSteadyWindows
                         ? Seconds(window_ns)
                         : Seconds(last - start_ns.load() - w * window_ns);
    for (const ClientLog& log : logs) {
      window.completed += log.window_completed[w];
      window.latency_ns.insert(
          window.latency_ns.end(),
          log.latency_ns.begin() + static_cast<long>(log.window_begin[w]),
          log.latency_ns.begin() + static_cast<long>(log.window_begin[w + 1]));
    }
  }
  result.staged = staged.load();
  return result;
}

uint64_t CheckQuiesced(SelectEngine* engine, Index n,
                       const std::vector<Value>& inserts, int64_t staged,
                       Gate* gate) {
  Answer want = BaseAnswer(n, 0, n);
  for (int64_t k = 0; k < staged; ++k) {
    want.count += 1;
    want.sum += inserts[static_cast<size_t>(k)];
  }
  Query full;
  full.low = 0;
  full.high = n;
  full.mode = OutputMode::kSum;
  QueryOutput output;
  gate->attempted.fetch_add(2);
  const Status status = engine->Execute(full, &output);
  Answer got;
  if (!status.ok()) {
    gate->errors.fetch_add(1);
    gate->Report("full-range query failed: " + status.ToString());
  } else {
    got = AnswerOf(full, output, true);
    Check(full, output, got, true, want, want, gate);
  }
  const Status valid = engine->Validate();
  if (!valid.ok()) {
    gate->errors.fetch_add(1);
    gate->Report("Validate: " + valid.ToString());
  }
  return MixAnswer(0, 0, got);
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
