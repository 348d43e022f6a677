// Per-layer measurements for the traced run: span attribution and the
// replays of index, kernel and wire calls on the workload's own inputs.
#pragma once

#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Durations in microseconds of every span of `layer`.
std::vector<double> DurationsUs(const std::vector<Span>& spans, Layer layer);

/// Self times from spans recorded while a single client had one query in
/// flight, so every span inside a parent's interval belongs to it.
struct Attribution {
  double epoch_self_us = 0;     ///< epoch span minus its column spans
  double router_self_us = 0;    ///< top span minus its per-node spans
  double router_fanout = 0;     ///< per-node spans per top span
  double transport_hop_us = 0;  ///< call span minus the node span inside
};

/// `epoch_layer` is the layer whose span wraps an EpochEngine (kTop for a
/// single epoch engine, kNode under a router);
/// `route_layer` the per-node layer under the top span (kNode for
/// in-process shards, kTransport over a transport; kCount for none).
Attribution Attribute(const std::vector<Span>& spans, Layer epoch_layer,
                      Layer route_layer);

struct IndexReplay {
  double add_p50_us = 0;
  double add_p99_us = 0;
  double add_total_s = 0;
  double find_ns = 0;  ///< FindPiece on the converged index, per call
};

/// Replays CrackerIndex::AddCrack over the stream's bounds in order (on a
/// permutation of [0, n) the crack at value v sits at position v), then
/// times FindPiece on the converged index.
IndexReplay ReplayIndex(const std::vector<Query>& stream, Index n);

/// CrackInThree / CrackInTwo on fresh copies of `piece` column values,
/// bounds taken from the stream; nanoseconds per tuple.
double CrackNsPerTuple(const std::vector<Value>& column, Index piece,
                       const std::vector<Query>& stream);

/// SumInRange / CountInRange over `width` column values; nanoseconds per
/// tuple.
double FoldNsPerTuple(const std::vector<Value>& column, Value width);

struct WireTimes {
  double encode_us = 0;  ///< request + response, per hop
  double decode_us = 0;
};

/// Times wire::Decode then wire::Encode on captured frames.
WireTimes TimeWire(const std::vector<TransportTap::Frame>& frames);

}  // namespace perfbench
