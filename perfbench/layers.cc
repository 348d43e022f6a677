#include "layers.h"

#include <algorithm>

#include "cracking/kernel.h"
#include "distributed/wire.h"
#include "index/cracker_index.h"
#include "phases.h"

namespace perfbench {

std::vector<double> DurationsUs(const std::vector<Span>& spans, Layer layer) {
  std::vector<double> us;
  for (const Span& s : spans) {
    if (s.layer == layer) us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return us;
}

namespace {

std::vector<Span> OfLayer(const std::vector<Span>& spans, Layer layer) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.layer == layer) out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

/// Children of `parent` (sorted by start) that lie inside its interval and
/// pass `keep`; returns the length of their union and counts them.
template <typename Keep>
int64_t CoveredNs(const std::vector<Span>& children, const Span& parent,
                  Keep keep, int64_t* count) {
  auto it = std::lower_bound(
      children.begin(), children.end(), parent.start_ns,
      [](const Span& s, int64_t t) { return s.start_ns < t; });
  int64_t covered = 0;
  int64_t reach = parent.start_ns;
  for (; it != children.end() && it->start_ns <= parent.end_ns; ++it) {
    if (it->end_ns > parent.end_ns || !keep(*it)) continue;
    ++*count;
    const int64_t from = std::max(reach, it->start_ns);
    if (it->end_ns > from) {
      covered += it->end_ns - from;
      reach = it->end_ns;
    }
  }
  return covered;
}

/// Keeps a replay's result observable so the timed calls are not elided.
volatile int64_t g_sink = 0;

double MeanOr0(double total, int64_t count) {
  return count > 0 ? total / static_cast<double>(count) : 0;
}

}  // namespace

Attribution Attribute(const std::vector<Span>& spans, Layer epoch_layer,
                      Layer route_layer) {
  Attribution a;
  const std::vector<Span> tops = OfLayer(spans, Layer::kTop);
  const std::vector<Span> nodes = OfLayer(spans, Layer::kNode);
  const std::vector<Span> columns = OfLayer(spans, Layer::kColumn);
  const std::vector<Span> calls = OfLayer(spans, Layer::kTransport);

  const std::vector<Span>& epochs = epoch_layer == Layer::kTop ? tops : nodes;
  double epoch_self_ns = 0;
  for (const Span& e : epochs) {
    int64_t unused = 0;
    // The epoch wrapper calls its column on the calling thread.
    epoch_self_ns += static_cast<double>(
        (e.end_ns - e.start_ns) -
        CoveredNs(columns, e,
                  [&](const Span& c) { return c.thread == e.thread; },
                  &unused));
  }
  a.epoch_self_us =
      MeanOr0(epoch_self_ns, static_cast<int64_t>(epochs.size())) * 1e-3;
  if (route_layer != Layer::kCount) {
    const std::vector<Span>& routed =
        route_layer == Layer::kNode ? nodes : calls;
    double self_ns = 0;
    int64_t fanned = 0;
    for (const Span& top : tops) {
      self_ns += static_cast<double>(
          (top.end_ns - top.start_ns) -
          CoveredNs(routed, top, [](const Span&) { return true; }, &fanned));
    }
    a.router_self_us = MeanOr0(self_ns, static_cast<int64_t>(tops.size())) * 1e-3;
    a.router_fanout = MeanOr0(static_cast<double>(fanned),
                              static_cast<int64_t>(tops.size()));
  }
  if (!calls.empty()) {
    double hop_ns = 0;
    for (const Span& call : calls) {
      int64_t unused = 0;
      hop_ns += static_cast<double>(
          (call.end_ns - call.start_ns) -
          CoveredNs(nodes, call,
                    [&](const Span& n) { return n.node == call.node; },
                    &unused));
    }
    a.transport_hop_us = MeanOr0(hop_ns, static_cast<int64_t>(calls.size())) * 1e-3;
  }
  return a;
}

IndexReplay ReplayIndex(const std::vector<Query>& stream, Index n) {
  IndexReplay r;
  scrack::CrackerIndex index(n);
  std::vector<int64_t> add_ns;
  add_ns.reserve(2 * stream.size());
  int64_t total = 0;
  for (const Query& q : stream) {
    for (const Value v : {q.low, q.high}) {
      if (v <= 0 || v >= n) continue;
      const int64_t start = NowNs();
      index.AddCrack(v, v);
      const int64_t took = NowNs() - start;
      add_ns.push_back(took);
      total += took;
    }
  }
  r.add_p50_us = Percentile(&add_ns, 0.50) * 1e-3;
  r.add_p99_us = Percentile(&add_ns, 0.99) * 1e-3;
  r.add_total_s = static_cast<double>(total) * 1e-9;

  // Repeat the lookups until ~1M calls so the per-call time is well above
  // the clock's resolution.
  const size_t rounds = std::max<size_t>(1, 1000000 / (2 * stream.size() + 1));
  Index sink = 0;
  const int64_t start = NowNs();
  for (size_t round = 0; round < rounds; ++round) {
    for (const Query& q : stream) {
      sink += index.FindPiece(q.low).begin + index.FindPiece(q.high).end;
    }
  }
  const int64_t took = NowNs() - start;
  g_sink = sink;
  r.find_ns = static_cast<double>(took) /
              static_cast<double>(rounds * 2 * stream.size());
  return r;
}

double CrackNsPerTuple(const std::vector<Value>& column, Index piece,
                       const std::vector<Query>& stream) {
  piece = std::clamp<Index>(piece, 1, static_cast<Index>(column.size()));
  const std::vector<Value> source(column.begin(), column.begin() + piece);
  std::vector<Value> work;
  const size_t reps = std::max<size_t>(8, (Index{1} << 25) / piece);
  int64_t total_ns = 0;
  scrack::KernelCounters counters;
  for (size_t r = 0; r < reps; ++r) {
    work = source;
    const Query& q = stream[r % stream.size()];
    const int64_t start = NowNs();
    if (r % 2 == 0) {
      scrack::CrackInThree(work.data(), 0, piece, q.low, q.high, &counters);
    } else {
      scrack::CrackInTwo(work.data(), 0, piece, q.low, &counters);
    }
    total_ns += NowNs() - start;
  }
  return static_cast<double>(total_ns) /
         (static_cast<double>(reps) * static_cast<double>(piece));
}

double FoldNsPerTuple(const std::vector<Value>& column, Value width) {
  width = std::clamp<Value>(width, 1, static_cast<Value>(column.size()));
  const Value everything = static_cast<Value>(column.size());
  const size_t reps = std::max<size_t>(64, (Index{1} << 25) / width);
  int64_t sink = 0;
  const int64_t start = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      sink += scrack::SumInRange(column.data(), 0, width, 0, everything).sum;
    } else {
      sink += scrack::CountInRange(column.data(), 0, width, 0, everything);
    }
  }
  const int64_t took = NowNs() - start;
  g_sink = sink;
  return static_cast<double>(took) /
         (static_cast<double>(reps) * static_cast<double>(width));
}

WireTimes TimeWire(const std::vector<TransportTap::Frame>& frames) {
  WireTimes w;
  if (frames.empty()) return w;
  std::vector<scrack::wire::Request> requests(frames.size());
  std::vector<scrack::wire::Response> responses(frames.size());
  int64_t start = NowNs();
  for (size_t i = 0; i < frames.size(); ++i) {
    SCRACK_CHECK(scrack::wire::Decode(frames[i].request, &requests[i]).ok());
    SCRACK_CHECK(scrack::wire::Decode(frames[i].response, &responses[i]).ok());
  }
  w.decode_us = static_cast<double>(NowNs() - start) * 1e-3 /
                static_cast<double>(frames.size());
  int64_t bytes = 0;
  start = NowNs();
  for (size_t i = 0; i < frames.size(); ++i) {
    // Fresh buffers, as the coordinator and the node encode.
    std::vector<uint8_t> request;
    std::vector<uint8_t> response;
    scrack::wire::Encode(requests[i], &request);
    scrack::wire::Encode(responses[i], &response);
    bytes += static_cast<int64_t>(request.size() + response.size());
  }
  w.encode_us = static_cast<double>(NowNs() - start) * 1e-3 /
                static_cast<double>(frames.size());
  g_sink = bytes;
  return w;
}

}  // namespace perfbench
