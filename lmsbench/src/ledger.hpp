#pragma once

// The traced run's instruments, all owned by the benchmark: a per-thread
// allocation counter (the binary replaces the global operator new) and an
// in-memory span recorder. Spans are taken only around calls the benchmark
// makes into the stack's public functions; self time is a span's duration
// minus the time its direct children cover.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lmsbench {

/// operator new calls made by the calling thread so far.
std::uint64_t thread_allocs();

std::int64_t now_ns();

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;            ///< index of the enclosing span, -1 for a root
    std::uint64_t allocs;  ///< operator new calls on this thread inside the span
  };
  /// Totals per span name.
  struct Layer {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;
  };

  int begin(const char* name);
  void end(int id);
  std::map<std::string, Layer> layers() const;
  /// Write every span as one JSON object per line; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span; a null recorder makes it a no-op.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name) : -1) {}
  ~Scoped() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace lmsbench
