#include "lms/obs/cpuprofiler.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>

#include "lms/core/runtime.hpp"
#include "lms/obs/trace.hpp"
#include "lms/util/logging.hpp"

namespace lms::obs {

namespace {

/// Ring claimed by the calling thread. Plain TLS pointer: written once in
/// normal context or by the thread's own (non-reentrant) signal handler,
/// read by the same thread only.
thread_local profile_detail::SampleRing* tls_ring = nullptr;

std::uint64_t my_tid() { return static_cast<std::uint64_t>(::syscall(SYS_gettid)); }

bool thread_alive(std::uint64_t tid) {
  // Signal 0 = existence probe. EPERM would also mean "exists", but every
  // profiled thread is in our own process so only ESRCH happens in practice.
  return ::syscall(SYS_tgkill, ::getpid(), static_cast<pid_t>(tid), 0) == 0;
}

/// Frames the capture machinery itself contributes (leaf side of every
/// sample): the handler, the capture path, and the kernel's signal
/// trampoline. Matched against the demangled symbol to trim them offline.
bool is_capture_frame(const std::string& name) {
  return name.find("CpuProfiler") != std::string::npos ||
         name.find("__restore_rt") != std::string::npos ||
         name.find("signal_handler") != std::string::npos ||
         name.find("backtrace") != std::string::npos;
}

/// Collapse a demangled symbol into a flamegraph-friendly frame token:
/// argument list stripped, separators that collide with the collapsed
/// format (';' joins frames, ' ' splits off the count) replaced.
std::string frame_token(const std::string& symbol) {
  std::string out = symbol.substr(0, symbol.find('('));
  for (char& c : out) {
    if (c == ';' || c == ' ') c = '_';
  }
  return out.empty() ? std::string("(unknown)") : out;
}

}  // namespace

// ---------------------------------------------------------------------------
// CpuProfiler
// ---------------------------------------------------------------------------

CpuProfiler::CpuProfiler() = default;
CpuProfiler::~CpuProfiler() = default;

CpuProfiler& CpuProfiler::instance() {
  // Intentionally leaked: the signal handler is installed for process life
  // and must never observe a destroyed profiler during static teardown.
  static CpuProfiler* p = new CpuProfiler();
  return *p;
}

void CpuProfiler::signal_handler(int /*signo*/) {
  const int saved_errno = errno;  // backtrace/syscall may clobber it
  CpuProfiler& p = instance();
  if (p.enabled_.load(std::memory_order_relaxed)) p.capture();
  errno = saved_errno;
}

profile_detail::SampleRing* CpuProfiler::claim_ring(std::uint64_t tid) {
  for (auto& ring : rings_) {
    std::uint64_t expected = 0;
    if (ring->owner_tid.compare_exchange_strong(expected, tid, std::memory_order_acq_rel)) {
      return ring.get();
    }
    if (expected == tid) return ring.get();  // re-claim after stop/start
  }
  return nullptr;
}

void CpuProfiler::capture() {
  using profile_detail::RawSample;
  using profile_detail::SampleRing;
  SampleRing* ring = tls_ring;
  if (ring == nullptr) {
    ring = claim_ring(my_tid());
    if (ring == nullptr) {  // pool exhausted: more threads than max_threads
      samples_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    tls_ring = ring;
  }
  const std::uint32_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint32_t tail = ring->tail.load(std::memory_order_acquire);
  const auto cap = static_cast<std::uint32_t>(ring->slots.size());
  if (head - tail >= cap) {  // full: drop, never block or overwrite
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    samples_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RawSample& s = ring->slots[head % cap];
  s.nframes = ::backtrace(s.frames, RawSample::kMaxFrames);
  const TraceContext trace = current_trace();
  s.trace_id = trace.trace_id;
  s.trace_sampled = trace.sampled;
  const char* task = core::runtime::current_task_name();
  int i = 0;
  if (task != nullptr) {
    for (; i < RawSample::kMaxTaskName - 1 && task[i] != '\0'; ++i) s.task[i] = task[i];
  }
  s.task[i] = '\0';
  ring->head.store(head + 1, std::memory_order_release);
  samples_captured_.fetch_add(1, std::memory_order_relaxed);
}

util::Status CpuProfiler::start(Options options) {
  if (enabled_.load(std::memory_order_acquire)) {
    return util::Status::error("cpu profiler already running");
  }
  options.hz = std::clamp(options.hz, 1, 1000);
  if (options.max_threads == 0) options.max_threads = 1;
  if (options.ring_capacity == 0) options.ring_capacity = 1;
  if (options.max_stacks == 0) options.max_stacks = 1;
  options_ = options;

  // Rings are allocated once and never freed or resized: an in-flight
  // signal from a previous profiling session must always land in valid
  // memory. Later starts can only grow the pool.
  while (rings_.size() < options_.max_threads) {
    auto ring = std::make_unique<profile_detail::SampleRing>();
    ring->slots.resize(options_.ring_capacity);
    rings_.push_back(std::move(ring));
  }

  // Pre-warm backtrace(): the first call lazily loads libgcc under a lock
  // with allocation — do that here, not inside the first signal.
  void* warm[4];
  ::backtrace(warm, 4);

  if (options_.timer) {
    signo_ = options_.wall ? SIGALRM : SIGPROF;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &CpuProfiler::signal_handler;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(signo_, &sa, nullptr) != 0) {
      return util::Status::error("cpu profiler: sigaction failed");
    }
    handler_installed_.store(true, std::memory_order_release);
    enabled_.store(true, std::memory_order_release);  // before the first tick
    const long usec = std::max(1L, 1000000L / options_.hz);
    struct itimerval tv;
    tv.it_interval.tv_sec = usec / 1000000;
    tv.it_interval.tv_usec = usec % 1000000;
    tv.it_value = tv.it_interval;
    if (::setitimer(options_.wall ? ITIMER_REAL : ITIMER_PROF, &tv, nullptr) != 0) {
      enabled_.store(false, std::memory_order_release);
      return util::Status::error("cpu profiler: setitimer failed");
    }
    timer_armed_ = true;
  } else {
    enabled_.store(true, std::memory_order_release);
  }
  LMS_INFO("obs") << "cpu profiler started at " << options_.hz << " Hz ("
                  << (options_.wall ? "wall" : "cpu") << (options_.timer ? "" : ", manual")
                  << ")";
  return {};
}

void CpuProfiler::stop() {
  if (!enabled_.exchange(false, std::memory_order_acq_rel)) return;
  if (timer_armed_) {
    struct itimerval zero;
    std::memset(&zero, 0, sizeof(zero));
    ::setitimer(options_.wall ? ITIMER_REAL : ITIMER_PROF, &zero, nullptr);
    timer_armed_ = false;
    // The handler stays installed (and inert): restoring SIG_DFL would turn
    // one straggler SIGPROF into process death.
  }
  process_once();  // fold what the rings still hold
}

void CpuProfiler::sample_once() {
  if (!enabled_.load(std::memory_order_acquire)) return;
  capture();
}

const std::string& CpuProfiler::symbolize(void* pc) {
  auto it = symbols_.find(pc);
  if (it != symbols_.end()) return it->second;
  std::string name;
  Dl_info info;
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx", reinterpret_cast<std::size_t>(pc));
    name = buf;
  }
  return symbols_.emplace(pc, std::move(name)).first->second;
}

void CpuProfiler::fold_sample(const profile_detail::RawSample& sample) {
  using profile_detail::RawSample;
  // backtrace() returns leaf-first. Trim the capture machinery's own frames
  // off the leaf side, then emit root→leaf joined with ';'.
  const int n = std::min<int>(sample.nframes, RawSample::kMaxFrames);
  int first = 0;
  while (first < n && is_capture_frame(symbolize(sample.frames[first]))) ++first;
  std::string folded;
  if (sample.task[0] != '\0') {
    folded += "task:";
    folded += sample.task;
  }
  for (int i = n - 1; i >= first; --i) {
    if (!folded.empty()) folded += ';';
    folded += frame_token(symbolize(sample.frames[i]));
  }
  if (folded.empty()) folded = "(unknown)";

  auto it = table_.find(folded);
  if (it == table_.end()) {
    if (table_.size() >= options_.max_stacks) {
      stack_overflows_.fetch_add(1, std::memory_order_relaxed);
      it = table_.emplace("(overflow)", StackEntry{}).first;
    } else {
      it = table_.emplace(std::move(folded), StackEntry{}).first;
    }
  }
  it->second.count += 1;
  if (sample.trace_id != 0 && sample.trace_sampled) {
    it->second.trace_id = sample.trace_id;
  }
  samples_folded_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t CpuProfiler::process_once() {
  // table_mu_ serializes fold passes, making each ring's consumer side
  // single-threaded (the SPSC contract) even when stop() and the periodic
  // fold task race.
  core::sync::LockGuard lock(table_mu_);
  folds_.fetch_add(1, std::memory_order_relaxed);
  std::size_t folded = 0;
  for (auto& ring : rings_) {
    const std::uint64_t owner = ring->owner_tid.load(std::memory_order_acquire);
    if (owner == 0) continue;
    const std::uint32_t head = ring->head.load(std::memory_order_acquire);
    std::uint32_t tail = ring->tail.load(std::memory_order_relaxed);
    const auto cap = static_cast<std::uint32_t>(ring->slots.size());
    while (tail != head) {
      fold_sample(ring->slots[tail % cap]);
      ++tail;
      ++folded;
    }
    ring->tail.store(tail, std::memory_order_release);
    // Recycle rings of dead threads so the fixed pool survives thread
    // churn. Safe: a dead thread's handler can never fire again, and the
    // drain above consumed everything it wrote.
    if (!thread_alive(owner) &&
        ring->head.load(std::memory_order_acquire) == tail) {
      ring->owner_tid.store(0, std::memory_order_release);
      rings_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return folded;
}

std::vector<ProfileStack> CpuProfiler::snapshot(std::size_t max_stacks) const {
  std::vector<ProfileStack> out;
  {
    core::sync::LockGuard lock(table_mu_);
    out.reserve(table_.size());
    for (const auto& [stack, entry] : table_) {
      out.push_back(ProfileStack{stack, entry.count, entry.trace_id});
    }
  }
  std::sort(out.begin(), out.end(), [](const ProfileStack& a, const ProfileStack& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.stack < b.stack;
  });
  if (max_stacks != 0 && out.size() > max_stacks) out.resize(max_stacks);
  return out;
}

std::string CpuProfiler::collapsed(std::size_t max_stacks) const {
  std::string out;
  for (const ProfileStack& s : snapshot(max_stacks)) {
    out += s.stack;
    out += ' ';
    out += std::to_string(s.count);
    out += '\n';
  }
  return out;
}

void CpuProfiler::clear() {
  core::sync::LockGuard lock(table_mu_);
  table_.clear();
}

CpuProfiler::Stats CpuProfiler::stats() const {
  Stats s;
  s.running = enabled_.load(std::memory_order_acquire);
  s.timer = options_.timer && s.running;
  s.hz = options_.hz;
  s.samples_captured = samples_captured_.load(std::memory_order_relaxed);
  s.samples_dropped = samples_dropped_.load(std::memory_order_relaxed);
  s.samples_folded = samples_folded_.load(std::memory_order_relaxed);
  s.folds = folds_.load(std::memory_order_relaxed);
  s.rings_reclaimed = rings_reclaimed_.load(std::memory_order_relaxed);
  s.stack_overflows = stack_overflows_.load(std::memory_order_relaxed);
  for (const auto& ring : rings_) {
    if (ring->owner_tid.load(std::memory_order_acquire) != 0) ++s.rings_active;
  }
  {
    core::sync::LockGuard lock(table_mu_);
    s.stacks = table_.size();
  }
  return s;
}

void CpuProfiler::on_attach(core::TaskScheduler& sched) {
  const util::TimeNs interval =
      options_.fold_interval > 0 ? options_.fold_interval : util::kNanosPerSecond;
  fold_task_ = sched.submit_periodic("obs.cpuprofile.fold", interval,
                                     [this] { process_once(); });
}

void CpuProfiler::on_detach() {
  fold_task_.cancel();
  process_once();  // final fold so late samples are not stranded in rings
}

}  // namespace lms::obs
