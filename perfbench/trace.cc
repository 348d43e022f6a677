#include "trace.h"

#include <algorithm>
#include <chrono>
#include <iterator>

namespace perfbench {

namespace {

std::atomic<uint64_t> next_tracer_id{1};

struct CachedLog {
  uint64_t tracer_id = 0;
  void* log = nullptr;
};
thread_local CachedLog cached_log;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(size_t capacity_per_thread)
    : capacity_(capacity_per_thread),
      id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::Log* Tracer::ThreadLog() {
  if (cached_log.tracer_id == id_) return static_cast<Log*>(cached_log.log);
  std::lock_guard<std::mutex> lock(logs_mutex_);
  logs_.push_back(std::make_unique<Log>());
  Log* log = logs_.back().get();
  log->spans.reserve(capacity_);
  cached_log = CachedLog{id_, log};
  return log;
}

void Tracer::Record(Layer layer, int node, int64_t start_ns, int64_t end_ns) {
  Log* log = ThreadLog();
  if (log->spans.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.node = static_cast<int16_t>(node);
  span.layer = layer;
  log->spans.push_back(span);
}

double Tracer::ThreadFill() {
  return static_cast<double>(ThreadLog()->spans.size()) /
         static_cast<double>(capacity_);
}

std::vector<Span> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  std::vector<Span> all;
  for (size_t t = 0; t < logs_.size(); ++t) {
    for (Span span : logs_[t]->spans) {
      span.thread = static_cast<uint16_t>(t);
      all.push_back(span);
    }
    logs_[t]->spans.clear();
  }
  return all;
}

EngineTap::EngineTap(std::unique_ptr<scrack::SelectEngine> inner, Layer layer,
                     int node, Tracer* tracer)
    : inner_(std::move(inner)), layer_(layer), node_(node), tracer_(tracer) {}

// Each forwarder samples enabled() once, so a span is recorded whole or
// not at all when tracing is switched mid-call.
#define PERFBENCH_TAPPED(layer, call)                       \
  do {                                                      \
    if (!tracer_->enabled()) return call;                   \
    const int64_t start = NowNs();                          \
    scrack::Status status = call;                           \
    tracer_->Record(layer, node_, start, NowNs());          \
    return status;                                          \
  } while (false)

scrack::Status EngineTap::Select(scrack::Value low, scrack::Value high,
                                 scrack::QueryResult* result) {
  PERFBENCH_TAPPED(layer_, inner_->Select(low, high, result));
}

scrack::Status EngineTap::Execute(const scrack::Query& query,
                                  scrack::QueryOutput* output) {
  PERFBENCH_TAPPED(layer_, inner_->Execute(query, output));
}

scrack::Status EngineTap::ExecuteBatch(
    const std::vector<scrack::Query>& queries,
    std::vector<scrack::QueryOutput>* outputs) {
  PERFBENCH_TAPPED(layer_, inner_->ExecuteBatch(queries, outputs));
}

// Staging is timed at the top of the stack only: a tap further down (the
// column under an epoch) would record each insert again, inside the first.
scrack::Status EngineTap::StageInsert(scrack::Value v) {
  if (layer_ != Layer::kTop) return inner_->StageInsert(v);
  PERFBENCH_TAPPED(Layer::kStage, inner_->StageInsert(v));
}

scrack::Status EngineTap::StageDelete(scrack::Value v) {
  if (layer_ != Layer::kTop) return inner_->StageDelete(v);
  PERFBENCH_TAPPED(Layer::kStage, inner_->StageDelete(v));
}

TransportTap::TransportTap(std::unique_ptr<scrack::Transport> inner,
                           Tracer* tracer, size_t max_frames)
    : inner_(std::move(inner)), tracer_(tracer), frames_(max_frames) {}

scrack::Status TransportTap::Call(int node, const std::vector<uint8_t>& request,
                                  std::vector<uint8_t>* response) {
  if (!tracer_->enabled()) return inner_->Call(node, request, response);
  const int64_t start = NowNs();
  scrack::Status status = inner_->Call(node, request, response);
  tracer_->Record(Layer::kTransport, node, start, NowNs());
  if (status.ok() && claimed_.load(std::memory_order_relaxed) < frames_.size()) {
    const size_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (slot < frames_.size()) {
      frames_[slot].request = request;
      frames_[slot].response = *response;
    }
  }
  return status;
}

std::vector<TransportTap::Frame> TransportTap::TakeFrames() {
  const size_t used = std::min(claimed_.load(), frames_.size());
  std::vector<Frame> taken(std::make_move_iterator(frames_.begin()),
                           std::make_move_iterator(frames_.begin() +
                                                   static_cast<long>(used)));
  claimed_.store(frames_.size());  // no further captures
  return taken;
}

}  // namespace perfbench
