// Stack construction and the timed phases of one workload run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cracking/engine.h"
#include "distributed/storage_node.h"
#include "distributed/tcp_server.h"
#include "storage/column.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Wall-clock split of one stack build.
struct BuildTimes {
  double load_s = 0;       ///< loading the generated values into a Column
  double partition_s = 0;  ///< computing and dealing node slices
  double engine_s = 0;     ///< constructing engines
  double listen_s = 0;     ///< starting servers, connecting and priming
  double total_s = 0;      ///< the whole build
};

/// One serving stack, built only through the library's public
/// constructors. Members are declared so that destruction runs engine ->
/// servers -> nodes -> column: the coordinator closes its connections
/// before the servers stop, the servers stop before their nodes go away,
/// and the column outlives every engine that reads it.
struct Stack {
  scrack::Column column;  ///< the data, as loaded by this build
  std::vector<std::unique_ptr<scrack::StorageNode>> nodes;
  std::vector<std::unique_ptr<scrack::TcpNodeServer>> servers;
  std::unique_ptr<scrack::SelectEngine> engine;
  TransportTap* transport_tap = nullptr;  ///< owned by engine; traced only
  BuildTimes times;
};

/// Loads `values` into a Column and builds the workload's stack over it.
/// With a tracer, taps are placed at every layer boundary; without one the
/// stack is exactly what a user would build.
scrack::Status BuildStack(const Shape& shape, const std::vector<Value>& values,
                          uint64_t seed, Tracer* tracer, Stack* out);

/// Counts operations and correctness-gate failures across phases.
struct Gate {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> errors{0};      ///< non-OK statuses
  std::atomic<int64_t> degraded{0};    ///< partial (degraded) answers
  std::atomic<int64_t> mismatches{0};  ///< answers the oracle rejects
  std::atomic<int> reported{0};        ///< mismatch lines printed so far

  int64_t failed() const {
    return errors.load() + degraded.load() + mismatches.load();
  }
  /// Prints the first few failures to stderr.
  void Report(const std::string& what);
};

/// The answer a query output carries: count and sum (the sum of a
/// materialized result is recomputed only when `with_sum`).
Answer AnswerOf(const Query& query, const scrack::QueryOutput& output,
                bool with_sum);

struct ColdResult {
  std::vector<int64_t> latency_ns;  ///< one per query, in stream order
  double total_s = 0;               ///< sum of per-query latencies
  uint64_t checksum = 0;            ///< MixAnswer over every answer
  // Per-query CurrentStats() deltas, summed (only when requested).
  int64_t touched = 0;
  int64_t swaps = 0;
  std::vector<int64_t> touched_per_query;
};

/// Single client, one pass over the stream from the freshly built stack;
/// every answer is checked exactly. `corrupt_at` >= 0 falsifies that
/// query's answer before the check (the gate's own test).
ColdResult RunCold(scrack::SelectEngine* engine,
                   const std::vector<Query>& stream, Index n,
                   bool per_query_stats, int64_t corrupt_at, Gate* gate);

/// The steady phase is cut into equal windows by query completion time;
/// the reported figures are medians over windows, so one burst of outside
/// interference moves one window, not the result.
constexpr int kSteadyWindows = 5;

struct SteadyWindow {
  double seconds = 0;
  int64_t completed = 0;
  std::vector<uint32_t> latency_ns;  ///< all clients, as recorded
};

struct SteadyResult {
  int64_t completed = 0;
  double elapsed_s = 0;
  std::vector<SteadyWindow> windows;
  int64_t staged = 0;             ///< inserts the writer staged
  std::vector<int64_t> write_ns;  ///< per insert, from its due time
  /// Per insert, how late the writer woke: after its due time or after the
  /// previous insert returned, whichever is later. This is the harness's
  /// own jitter; time the engine held the writer up is in write_ns only.
  std::vector<int64_t> late_ns;
};

struct SteadyOptions {
  int clients = 1;
  double seconds = 1;
  double insert_rate = 0;  ///< 0 = read-only
  /// With a tracer, the phase ends early once a client's span log is 90%
  /// full, leaving room for the spans its last queries cause elsewhere.
  Tracer* tracer = nullptr;
};

/// Closed-loop clients replay the stream (client i starts at offset
/// i * len / clients) beside an optional open-loop writer staging
/// `inserts[staged_before..]`. Each count and sum is checked against the
/// oracle bounds: at least the base answer plus the inserts staged before
/// the query began, at most that plus the inserts staged by its end.
SteadyResult RunSteady(scrack::SelectEngine* engine,
                       const std::vector<Query>& stream, Index n,
                       const std::vector<Value>& inserts,
                       const InsertLedger& ledger, int64_t staged_before,
                       const SteadyOptions& options, Gate* gate);

/// After every client stopped: a full-range count and sum must equal the
/// column plus every staged insert, and Validate() must pass. Returns the
/// full-range answer's checksum.
uint64_t CheckQuiesced(scrack::SelectEngine* engine, Index n,
                       const std::vector<Value>& inserts, int64_t staged,
                       Gate* gate);

/// Exact order statistic with linear interpolation (q in [0, 1]); 0 for
/// no samples. Partially reorders `values`.
template <typename T>
double Percentile(std::vector<T>* values, double q) {
  if (values->empty()) return 0;
  const double rank = q * static_cast<double>(values->size() - 1);
  const auto lo = static_cast<size_t>(rank);
  std::nth_element(values->begin(), values->begin() + static_cast<long>(lo),
                   values->end());
  const double below = static_cast<double>((*values)[lo]);
  if (lo + 1 >= values->size()) return below;
  const double above = static_cast<double>(
      *std::min_element(values->begin() + static_cast<long>(lo) + 1,
                        values->end()));
  return below + (rank - static_cast<double>(lo)) * (above - below);
}

double PeakRssMiB();

}  // namespace perfbench
