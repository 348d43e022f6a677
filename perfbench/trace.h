// Outside-in layer tracing: timing decorators around the library's public
// entry points, recording spans into pre-sized per-thread logs.
//
// No library code changes: an EngineTap wraps a SelectEngine at a layer
// boundary (the top of the stack, each shard or node, the cracker column
// under an epoch), and a TransportTap wraps the coordinator's Transport.
// Spans are kept in memory and read out once the traced phases end. The
// taps are built only for --trace 1; end-to-end numbers come from runs
// whose stack has no tap at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cracking/engine.h"
#include "distributed/transport.h"

namespace perfbench {

enum class Layer : uint8_t {
  kTop,        ///< the whole stack, as the client calls it
  kNode,       ///< one shard (sharded) or one storage node (coord)
  kColumn,     ///< the cracking engine under an epoch wrapper
  kTransport,  ///< one coordinator -> node Transport::Call
  kStage,      ///< StageInsert at the top of the stack
  kCount,
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint16_t thread = 0;  ///< index of the recording thread's log
  int16_t node = -1;    ///< shard/node index, -1 when not per-node
  Layer layer = Layer::kTop;
};

int64_t NowNs();

/// Owns every thread's span log. A thread gets its log (allocated to
/// `capacity` spans) on its first record; later records never allocate.
/// A full log drops further spans and counts them.
class Tracer {
 public:
  explicit Tracer(size_t capacity_per_thread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void Record(Layer layer, int node, int64_t start_ns, int64_t end_ns);

  /// Fill of the calling thread's log in [0, 1]; clients stop a traced
  /// phase before their log overflows.
  double ThreadFill();

  /// Every span recorded so far (all threads), then clears the logs.
  /// Call only while no thread records.
  std::vector<Span> Drain();

  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Log {
    std::vector<Span> spans;
  };
  Log* ThreadLog();

  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};
  std::mutex logs_mutex_;  // guards logs_ (registration only)
  std::vector<std::unique_ptr<Log>> logs_;
  const uint64_t id_;  ///< distinguishes tracers in the thread-local cache
};

/// Forwards every SelectEngine virtual to `inner`, recording a span of
/// `layer` around Select/Execute/ExecuteBatch (and, for the kTop tap only,
/// StageInsert/StageDelete as Layer::kStage). audit_column() and CurrentStats() are forwarded so
/// wrappers above (EpochEngine caches audit_column() at construction) see
/// through the tap.
class EngineTap : public scrack::SelectEngine {
 public:
  EngineTap(std::unique_ptr<scrack::SelectEngine> inner, Layer layer,
            int node, Tracer* tracer);

  scrack::Status Select(scrack::Value low, scrack::Value high,
                        scrack::QueryResult* result) override;
  scrack::Status Execute(const scrack::Query& query,
                         scrack::QueryOutput* output) override;
  scrack::Status ExecuteBatch(
      const std::vector<scrack::Query>& queries,
      std::vector<scrack::QueryOutput>* outputs) override;
  std::string name() const override { return inner_->name(); }
  scrack::Status StageInsert(scrack::Value v) override;
  scrack::Status StageDelete(scrack::Value v) override;
  scrack::EngineStats CurrentStats() const override {
    return inner_->CurrentStats();
  }
  scrack::Status Validate() const override { return inner_->Validate(); }
  const scrack::CrackerColumn* audit_column() const override {
    return inner_->audit_column();
  }

 private:
  std::unique_ptr<scrack::SelectEngine> inner_;
  const Layer layer_;
  const int node_;
  Tracer* const tracer_;
};

/// Forwards Transport::Call with a Layer::kTransport span per call, and
/// keeps copies of the first frames it carries so wire encode/decode can
/// be timed on real traffic after the run.
class TransportTap : public scrack::Transport {
 public:
  TransportTap(std::unique_ptr<scrack::Transport> inner, Tracer* tracer,
               size_t max_frames);

  int num_nodes() const override { return inner_->num_nodes(); }
  scrack::Status Call(int node, const std::vector<uint8_t>& request,
                      std::vector<uint8_t>* response) override;
  scrack::TransportCounters counters() const override {
    return inner_->counters();
  }

  struct Frame {
    std::vector<uint8_t> request;
    std::vector<uint8_t> response;
  };
  /// Frames captured while tracing was on. Call only while no thread
  /// calls through the tap.
  std::vector<Frame> TakeFrames();

 private:
  std::unique_ptr<scrack::Transport> inner_;
  Tracer* const tracer_;
  std::vector<Frame> frames_;  ///< pre-sized; slot i written by one caller
  std::atomic<size_t> claimed_{0};
};

}  // namespace perfbench
