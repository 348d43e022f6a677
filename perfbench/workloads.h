// Workload generation and the closed-form answer oracle.
//
// Everything here is derived from the --seed argument with the benchmark's
// own generator, so the library under test receives only the finished column
// and query stream: a later change to the library's workload generators
// cannot change what the benchmark measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/query.h"
#include "util/common.h"

namespace perfbench {

using scrack::Index;
using scrack::OutputMode;
using scrack::Query;
using scrack::Value;

/// SplitMix64: small, seedable and identical on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0. Multiply-shift, bias < 2^-40 for
  /// the bounds used here.
  uint64_t Below(uint64_t bound);

 private:
  uint64_t state_;
};

/// One workload's shape. The full-scale shapes and their smoke-scale twins
/// come from ShapeFor().
struct Shape {
  Index n = 0;                 ///< column is a permutation of [0, n)
  int64_t cold_queries = 0;    ///< stream length (cold pass replays it once)
  Value width = 0;             ///< query range width in values
  int clients = 1;             ///< closed-loop steady-phase clients
  double insert_rate = 0;      ///< open-loop writer inserts/s (0 = none)
  int nodes = 0;               ///< 0 = single engine; else shards/nodes
  bool tcp = false;            ///< nodes behind loopback TCP servers
  int setup_repeats = 1;       ///< stack builds whose median is setup_s
  int cold_repeats = 1;        ///< the last builds each run a cold pass
};

/// Returns false for an unknown workload name.
bool ShapeFor(const std::string& workload, bool smoke, Shape* shape);

/// A permutation of [0, n) (Fisher-Yates over the benchmark's generator).
std::vector<Value> MakePermutation(Index n, uint64_t seed);

/// Uniform-random ranges of `width`; every fourth query materializes, the
/// rest sum.
std::vector<Query> MakeUniformStream(Index n, int64_t count, Value width,
                                     uint64_t seed);

/// Insert values for the open-loop writer, uniform over [0, n).
std::vector<Value> MakeInserts(Index n, int64_t count, uint64_t seed);

struct Answer {
  Index count = 0;
  int64_t sum = 0;
};

/// Count and sum of [lo, hi) over a permutation of [0, n).
Answer BaseAnswer(Index n, Value lo, Value hi);

/// Planned inserts, indexed by value so that the inserts with sequence
/// number < k inside [lo, hi) are found by binary search.
class InsertLedger {
 public:
  explicit InsertLedger(const std::vector<Value>& planned);
  Answer Staged(Value lo, Value hi, int64_t k) const;

 private:
  struct Entry {
    Value value;
    int64_t seq;
  };
  std::vector<Entry> by_value_;
};

/// Order-independent checksum of a stream's answers (count and sum per
/// query index), equal between two stacks that answer identically.
uint64_t MixAnswer(uint64_t acc, int64_t index, const Answer& answer);

}  // namespace perfbench
