// Scoped wall-clock trace spans with Chrome trace-event export.
//
// Hot paths mark themselves with AF_TRACE_SPAN("defense.process"); when
// tracing is off (the default) the macro costs a single relaxed atomic load
// and branch. When on, each span records {name, thread, begin, end} into a
// lock-sharded ring buffer sized for whole runs, and WriteChromeTrace()
// exports everything as Chrome trace-event JSON — load the file in
// chrome://tracing or https://ui.perfetto.dev to see where a simulation
// spends its time.
//
// Kill switches: define AF_OBS_DISABLE_TRACING at compile time to erase the
// macro entirely, set the AF_TRACE=1 environment variable to enable
// collection at startup, or call TraceRecorder::Global().SetEnabled(true)
// programmatically (what run_experiment --trace-out does).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace obs {

// Span identity across the client/server boundary. All-zero (the default)
// means "no context": the span is purely local. Non-zero ids let spans
// recorded on different sides of a connection be stitched into one causal
// timeline by joining on trace_id.
struct TraceContext {
  std::uint64_t trace_id = 0;   // one logical operation end to end
  std::uint64_t span_id = 0;    // this span
  std::uint64_t parent_id = 0;  // the span that caused it (0 = root)
};

struct SpanEvent {
  // Span names must have static storage duration (string literals); the
  // recorder stores the pointer, not a copy.
  const char* name = nullptr;
  std::uint32_t thread_id = 0;  // dense per-process id, stable per thread
  std::uint64_t begin_ns = 0;   // steady_clock, offset from an arbitrary epoch
  std::uint64_t end_ns = 0;
  TraceContext context;  // zero ids → plain local span
};

// 16-digit zero-padded lowercase hex, the form trace ids take in every JSON
// export (64-bit ids do not survive JSON's double precision as numbers).
std::string TraceIdHex(std::uint64_t id);

struct TraceRecorderOptions {
  std::size_t shard_count = 8;          // locks sharded by thread id
  std::size_t shard_capacity = 1 << 16; // spans per shard before wrapping
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceRecorderOptions options = {});

  // The process-wide recorder AF_TRACE_SPAN records into. Honours AF_TRACE=1
  // in the environment on first access.
  static TraceRecorder& Global();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
              TraceContext context = {});

  // Stable copy of everything currently buffered, ordered by begin time.
  std::vector<SpanEvent> Snapshot() const;

  // Spans overwritten because a shard's ring wrapped.
  std::uint64_t DroppedCount() const;

  // Drops all buffered spans (dropped count included).
  void Clear();

  // Chrome trace-event JSON ("X" complete events, ts/dur in microseconds,
  // normalised so the earliest span starts at ts 0). Throws
  // std::runtime_error when the file cannot be opened.
  void WriteChromeTrace(const std::string& path) const;

  std::size_t SpanCount() const;

  static std::uint64_t NowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Dense id for the calling thread (assigned on first use).
  static std::uint32_t CurrentThreadId();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<SpanEvent> ring;
    std::size_t next = 0;     // write cursor
    std::size_t filled = 0;   // live entries (≤ capacity)
    std::uint64_t dropped = 0;
  };

  TraceRecorderOptions options_;
  std::atomic<bool> enabled_{false};
  std::vector<Shard> shards_;
};

// RAII span: samples the clock only when the global recorder is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, TraceContext context = {}) {
    if (TraceRecorder::Global().enabled()) {
      name_ = name;
      context_ = context;
      begin_ns_ = TraceRecorder::NowNs();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      TraceRecorder::Global().Record(name_, begin_ns_, TraceRecorder::NowNs(),
                                     context_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  TraceContext context_;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace obs

#if defined(AF_OBS_DISABLE_TRACING)
#define AF_TRACE_SPAN(name) \
  do {                      \
  } while (false)
#else
#define AF_OBS_CONCAT_INNER(a, b) a##b
#define AF_OBS_CONCAT(a, b) AF_OBS_CONCAT_INNER(a, b)
#define AF_TRACE_SPAN(name) \
  ::obs::ScopedSpan AF_OBS_CONCAT(af_trace_span_, __LINE__)(name)
#endif
