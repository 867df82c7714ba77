#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

namespace lmsbench {

namespace {
// Constant-initialized, so reading it from operator new never runs a TLS
// constructor (operator new is called during thread start-up too).
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  return posix_memalign(&p, a, n != 0 ? n : 1) == 0 ? p : nullptr;
}
}  // namespace

std::uint64_t thread_allocs() { return t_allocs; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::begin(const char* name) {
  spans_.push_back(Span{name, 0, 0, open_, 0});
  open_ = static_cast<int>(spans_.size()) - 1;
  // Read after the push, so the recorder's own growth falls outside.
  spans_.back().allocs = thread_allocs();
  spans_.back().start = now_ns();
  return open_;
}

void SpanRecorder::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_ns();
  s.allocs = thread_allocs() - s.allocs;
  open_ = s.parent;
}

std::map<std::string, SpanRecorder::Layer> SpanRecorder::layers() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& l = out[s.name];
    ++l.count;
    l.total_ns += s.end - s.start;
    l.self_ns += s.end - s.start - child_ns[i];
    l.allocs += s.allocs;
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                          &std::fclose);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"allocs\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent, static_cast<unsigned long long>(s.allocs));
  }
  return std::fflush(f.get()) == 0;
}

}  // namespace lmsbench

// Global allocation counting for the allocs_per_* layer metrics.
void* operator new(std::size_t n) {
  if (void* p = lmsbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = lmsbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return lmsbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return lmsbench::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = lmsbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = lmsbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return lmsbench::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return lmsbench::counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
