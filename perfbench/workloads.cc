#include "workloads.h"

#include <algorithm>

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix::Below(uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(Next()) * bound) >> 64);
}

bool ShapeFor(const std::string& workload, bool smoke, Shape* shape) {
  Shape s;
  if (workload == "serve") {
    // 2^22 values = 32 MiB, fits in the last-level cache.
    s.n = Index{1} << 22;
    s.cold_queries = 40000;
    s.width = s.n / 1000;
    s.clients = 3;
    s.insert_rate = 200;
    s.setup_repeats = 9;
    s.cold_repeats = 3;
  } else if (workload == "shard" || workload == "cluster") {
    s.n = Index{1} << 22;
    s.cold_queries = 20000;
    s.width = s.n / 1000;
    s.clients = 2;
    s.nodes = 4;
    s.tcp = workload == "cluster";
    s.setup_repeats = 9;
    s.cold_repeats = 9;
  } else {
    return false;
  }
  if (smoke) {
    s.n = Index{1} << 14;
    s.cold_queries = 400;
    s.width = std::max<Value>(8, s.width >> 12);
    s.setup_repeats = std::min(s.setup_repeats, 5);
    s.cold_repeats = 2;
  }
  *shape = s;
  return true;
}

std::vector<Value> MakePermutation(Index n, uint64_t seed) {
  std::vector<Value> values(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) values[static_cast<size_t>(i)] = i;
  SplitMix rng(seed ^ 0xC01C01C01ULL);
  for (Index i = n - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(rng.Below(static_cast<uint64_t>(i) + 1));
    std::swap(values[static_cast<size_t>(i)], values[j]);
  }
  return values;
}

std::vector<Query> MakeUniformStream(Index n, int64_t count, Value width,
                                     uint64_t seed) {
  SplitMix rng(seed ^ 0x57AE57AEULL);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Query q;
    q.low = static_cast<Value>(rng.Below(static_cast<uint64_t>(n - width)));
    q.high = q.low + width;
    q.mode = i % 4 == 0 ? OutputMode::kMaterialize : OutputMode::kSum;
    queries.push_back(q);
  }
  return queries;
}

std::vector<Value> MakeInserts(Index n, int64_t count, uint64_t seed) {
  SplitMix rng(seed ^ 0x1A5E27ULL);
  std::vector<Value> values(static_cast<size_t>(count));
  for (Value& v : values) v = static_cast<Value>(rng.Below(static_cast<uint64_t>(n)));
  return values;
}

Answer BaseAnswer(Index n, Value lo, Value hi) {
  lo = std::max<Value>(lo, 0);
  hi = std::min<Value>(hi, n);
  if (hi <= lo) return Answer{};
  // Sum of lo..hi-1, halving whichever factor is even (no overflow for
  // n < 2^31, far above any shape here).
  const int64_t terms = hi - lo;
  const int64_t ends = lo + hi - 1;
  const int64_t sum =
      terms % 2 == 0 ? (terms / 2) * ends : terms * (ends / 2);
  return Answer{terms, sum};
}

InsertLedger::InsertLedger(const std::vector<Value>& planned) {
  by_value_.reserve(planned.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    by_value_.push_back(Entry{planned[i], static_cast<int64_t>(i)});
  }
  std::sort(by_value_.begin(), by_value_.end(),
            [](const Entry& a, const Entry& b) {
              return a.value < b.value || (a.value == b.value && a.seq < b.seq);
            });
}

Answer InsertLedger::Staged(Value lo, Value hi, int64_t k) const {
  Answer staged;
  auto it = std::lower_bound(
      by_value_.begin(), by_value_.end(), lo,
      [](const Entry& e, Value v) { return e.value < v; });
  for (; it != by_value_.end() && it->value < hi; ++it) {
    if (it->seq < k) {
      ++staged.count;
      staged.sum += it->value;
    }
  }
  return staged;
}

uint64_t MixAnswer(uint64_t acc, int64_t index, const Answer& answer) {
  SplitMix mix(static_cast<uint64_t>(index) * 0x100000001B3ULL ^
               static_cast<uint64_t>(answer.count) * 0x9E3779B1ULL ^
               static_cast<uint64_t>(answer.sum));
  return acc + mix.Next();
}

}  // namespace perfbench
