#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

// Heap gauges come from glibc's mallinfo2, which describes glibc's own
// arenas. Sanitizer runtimes replace malloc, so those builds skip it at
// compile time; other interposed allocators are detected at run time.
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define VF2_MALLINFO2 1
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#undef VF2_MALLINFO2
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#undef VF2_MALLINFO2
#endif
#endif
#endif

#if defined(VF2_MALLINFO2)
#include <malloc.h>
extern "C" void* __libc_malloc(size_t size);
#endif

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/phase_tag.h"

// glibc spells the SIGEV_THREAD_ID target field differently across
// versions; the kernel ABI field is _sigev_un._tid.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace vf2boost {
namespace obs {

namespace {

constexpr int kMaxCapturedFrames = 40;
constexpr size_t kRingSize = 8192;  // power of two
constexpr uint32_t kSlotFree = 0;
constexpr uint32_t kSlotBusy = 1;
constexpr uint32_t kSlotReady = 2;

/// One ring entry. Written entirely from the SIGPROF handler (no heap
/// pointers, fixed-size buffers), consumed by the drainer. The per-slot
/// `state` atomic carries the happens-before edge: handler CASes
/// kFree->kBusy (acquire), fills the payload, store-releases kReady; the
/// drainer load-acquires kReady, copies, store-releases kFree.
struct Slot {
  std::atomic<uint32_t> state{kSlotFree};
  char party[24];
  const char* phase;
  int32_t tree;
  void* sig_pc;
  int nframes;
  void* frames[kMaxCapturedFrames];
};

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

void* ExtractPc(void* ucv) {
#if defined(__x86_64__)
  auto* uc = static_cast<ucontext_t*>(ucv);
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  auto* uc = static_cast<ucontext_t*>(ucv);
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)ucv;
  return nullptr;
#endif
}

/// Raw (pre-symbolization) sample identity, folded by the drainer. Frames
/// are stored root-first, already trimmed of handler machinery.
struct RawKey {
  std::string party;
  const char* phase;  // string literal or nullptr
  std::vector<void*> frames;

  bool operator<(const RawKey& o) const {
    if (int c = party.compare(o.party)) return c < 0;
    if (phase != o.phase) return phase < o.phase;
    return frames < o.frames;
  }
};

}  // namespace

// ---------------------------------------------------------------------
// Thread registry
// ---------------------------------------------------------------------

namespace {

struct ThreadEntry {
  pid_t tid = 0;
  pthread_t pt{};
  timer_t timer{};
  bool armed = false;
};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<ThreadEntry*>& Registry() {
  static std::vector<ThreadEntry*>* v = new std::vector<ThreadEntry*>;
  return *v;
}

// All transitions of g_active_impl happen under RegistryMutex(), so a
// late-registering thread never arms a timer that Stop's disarm pass
// misses. The handler reads it lock-free (guarded by g_in_handler).
struct ProfilerImplBase;
std::atomic<ProfilerImplBase*> g_active_impl{nullptr};
std::atomic<Profiler*> g_active_profiler{nullptr};
std::atomic<int> g_in_handler{0};

// Serializes whole profile-collection windows against Stop so a /pprof
// collector never sees its borrowed Active() profiler torn down mid-read.
std::mutex& CollectMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

struct ProfilerImplBase {
  virtual void TakeSample(void* ucv) = 0;
  virtual int hz() const = 0;
  virtual ~ProfilerImplBase() = default;
};

bool ArmTimer(ThreadEntry* e, int hz) {
  clockid_t clk;
  if (pthread_getcpuclockid(e->pt, &clk) != 0) return false;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = e->tid;
  if (timer_create(clk, &sev, &e->timer) != 0) return false;
  long period_ns = 1000000000L / std::max(1, hz);
  struct itimerspec its;
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(e->timer, 0, &its, nullptr) != 0) {
    timer_delete(e->timer);
    return false;
  }
  e->armed = true;
  return true;
}

void DisarmTimer(ThreadEntry* e) {
  if (!e->armed) return;
  timer_delete(e->timer);
  e->armed = false;
}

void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* ucv) {
  int saved_errno = errno;
  g_in_handler.fetch_add(1, std::memory_order_acquire);
  ProfilerImplBase* impl = g_active_impl.load(std::memory_order_acquire);
  if (impl != nullptr) impl->TakeSample(ucv);
  g_in_handler.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

void InstallHandlerOnce() {
  // Left installed for the life of the process: restoring SIGPROF's
  // default (terminate) while a deleted timer still has a signal in
  // flight would kill us. With g_active_impl null the handler is inert.
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = SigprofHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

struct ThreadRegistration {
  ThreadEntry* entry = nullptr;
  ~ThreadRegistration() {
    if (entry == nullptr) return;
    std::lock_guard<std::mutex> lk(RegistryMutex());
    DisarmTimer(entry);
    auto& reg = Registry();
    reg.erase(std::remove(reg.begin(), reg.end(), entry), reg.end());
    delete entry;
  }
};
thread_local ThreadRegistration t_registration;

}  // namespace

// ---------------------------------------------------------------------
// Profiler::Impl
// ---------------------------------------------------------------------

struct Profiler::Impl : ProfilerImplBase {
  ProfilerOptions opts;
  std::unique_ptr<Slot[]> ring{new Slot[kRingSize]};
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> threads_armed{0};
  std::atomic<bool> running{false};

  // Serializes ring consumption (drainer loop vs on-demand drains).
  mutable std::mutex drain_mu;
  // Protects raw counts, symbol cache and folded sample total.
  mutable std::mutex mu;
  std::map<RawKey, uint64_t> raw;
  uint64_t folded_samples = 0;
  mutable std::map<void*, std::string> symbol_cache;

  std::thread drainer;
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_requested = false;

  int hz() const override { return opts.hz; }

  void TakeSample(void* ucv) override {
    uint64_t pos =
        head.fetch_add(1, std::memory_order_relaxed) & (kRingSize - 1);
    Slot& s = ring[pos];
    uint32_t expect = kSlotFree;
    if (!s.state.compare_exchange_strong(expect, kSlotBusy,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    PhaseTag* tag = MutablePhaseTag();
    std::memcpy(s.party, tag->party, sizeof(s.party));
    s.phase = tag->phase;
    s.tree = tag->tree;
    s.sig_pc = ExtractPc(ucv);
    int max_frames = std::min(opts.max_frames, kMaxCapturedFrames);
    int n = ::backtrace(s.frames, max_frames);
    s.nframes = n < 0 ? 0 : n;
    s.state.store(kSlotReady, std::memory_order_release);
  }

  /// Consumes every ready slot into `raw`. Caller holds drain_mu.
  void DrainLocked() {
    for (size_t i = 0; i < kRingSize; ++i) {
      Slot& s = ring[i];
      if (s.state.load(std::memory_order_acquire) != kSlotReady) continue;
      RawKey key;
      key.party.assign(s.party, strnlen(s.party, sizeof(s.party)));
      key.phase = s.phase;
      // Trim handler machinery: frames are leaf-first; the interrupted PC
      // (from the ucontext) marks where application code resumes. Fall
      // back to skipping the handler + trampoline frames.
      int start = -1;
      for (int f = 0; f < s.nframes; ++f) {
        if (s.frames[f] == s.sig_pc) {
          start = f;
          break;
        }
      }
      if (start < 0) start = std::min(3, s.nframes);
      key.frames.reserve(static_cast<size_t>(s.nframes - start));
      for (int f = s.nframes - 1; f >= start; --f) {
        key.frames.push_back(s.frames[f]);  // reverse: root first
      }
      s.state.store(kSlotFree, std::memory_order_release);
      std::lock_guard<std::mutex> lk(mu);
      raw[std::move(key)] += 1;
      folded_samples += 1;
    }
  }

  void DrainNow() {
    std::lock_guard<std::mutex> lk(drain_mu);
    DrainLocked();
  }

  void DrainerLoop() {
    std::unique_lock<std::mutex> lk(stop_mu);
    while (!stop_requested) {
      stop_cv.wait_for(lk, std::chrono::milliseconds(10));
      lk.unlock();
      DrainNow();
      lk.lock();
    }
  }

  /// Symbolizes one return address (fold time only — never from the
  /// handler). Sanitized for the folded grammar: no ';', no spaces.
  const std::string& Symbolize(void* pc) const {
    auto it = symbol_cache.find(pc);
    if (it != symbol_cache.end()) return it->second;
    std::string name = "[unknown]";
    // Return addresses point after the call; back up one byte so the
    // lookup lands inside the calling function.
    void* probe = static_cast<char*>(pc) - 1;
    Dl_info info;
    if (dladdr(probe, &info) != 0 && info.dli_sname != nullptr) {
      int status = 0;
      char* dem =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      name = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
      std::free(dem);
      // Drop the argument list — folded stacks want one token per frame.
      size_t paren = name.find('(');
      if (paren != std::string::npos) name.resize(paren);
      for (char& c : name) {
        if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
      }
      if (name.empty()) name = "[unknown]";
    }
    return symbol_cache.emplace(pc, std::move(name)).first->second;
  }

  std::map<std::string, uint64_t> SymbolizedCounts() const {
    std::map<std::string, uint64_t> out;
    std::lock_guard<std::mutex> lk(mu);
    for (const auto& [key, count] : raw) {
      std::string line = key.party.empty() ? "unknown" : key.party;
      line += ';';
      line += (key.phase != nullptr) ? key.phase : "unknown";
      for (void* pc : key.frames) {
        line += ';';
        line += Symbolize(pc);
      }
      out[line] += count;
    }
    return out;
  }
};

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

Profiler::Profiler(ProfilerOptions opts) : impl_(new Impl) {
  impl_->opts = opts;
  if (impl_->opts.hz <= 0) impl_->opts.hz = 99;
  if (impl_->opts.max_frames <= 0) impl_->opts.max_frames = 48;
}

Profiler::~Profiler() {
  Stop();
  delete impl_;
}

bool Profiler::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

Profiler* Profiler::Active() {
  return g_active_profiler.load(std::memory_order_acquire);
}

bool Profiler::Start() {
  Profiler* expect = nullptr;
  if (!g_active_profiler.compare_exchange_strong(expect, this)) return false;

  InstallHandlerOnce();
  // backtrace's first call may dlopen/allocate (libgcc lazy init) — do it
  // here, from normal code, so the handler never does.
  void* warmup[4];
  ::backtrace(warmup, 4);
  ProfilerRegisterCurrentThread();

  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->raw.clear();
    impl_->folded_samples = 0;
  }
  impl_->dropped.store(0, std::memory_order_relaxed);
  impl_->running.store(true, std::memory_order_release);

  {
    std::lock_guard<std::mutex> lk(RegistryMutex());
    for (ThreadEntry* e : Registry()) {
      if (ArmTimer(e, impl_->opts.hz)) {
        impl_->threads_armed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    g_active_impl.store(impl_, std::memory_order_release);
  }

  {
    std::lock_guard<std::mutex> lk(impl_->stop_mu);
    impl_->stop_requested = false;
  }
  impl_->drainer = std::thread([this] { impl_->DrainerLoop(); });
  return true;
}

void Profiler::Stop() {
  // Fast path without the collect lock: ~Profiler runs inside
  // CollectFoldedProfile's scope (locals unwind before its lock_guard), so
  // taking CollectMutex for an already-stopped profiler would self-deadlock.
  if (!impl_->running.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(CollectMutex());
  StopLocked();
}

void Profiler::StopLocked() {
  Impl* impl = impl_;
  if (!impl->running.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lk(RegistryMutex());
    g_active_impl.store(nullptr, std::memory_order_release);
    for (ThreadEntry* e : Registry()) DisarmTimer(e);
  }
  // A signal already queued when its timer died still runs the handler;
  // it sees g_active_impl == nullptr, but wait out stragglers that loaded
  // the impl pointer just before we cleared it.
  while (g_in_handler.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lk(impl->stop_mu);
    impl->stop_requested = true;
  }
  impl->stop_cv.notify_all();
  if (impl->drainer.joinable()) impl->drainer.join();
  impl->DrainNow();
  impl->running.store(false, std::memory_order_release);
  g_active_profiler.store(nullptr, std::memory_order_release);
}

std::map<std::string, uint64_t> Profiler::Counts() const {
  impl_->DrainNow();
  return impl_->SymbolizedCounts();
}

std::string Profiler::FoldedText(
    const std::string& party_filter,
    const std::map<std::string, uint64_t>* base) const {
  std::map<std::string, uint64_t> counts = Counts();
  if (base != nullptr) {
    for (const auto& [key, prior] : *base) {
      auto it = counts.find(key);
      if (it == counts.end()) continue;
      it->second = (it->second > prior) ? it->second - prior : 0;
      if (it->second == 0) counts.erase(it);
    }
  }
  if (!party_filter.empty()) {
    for (auto it = counts.begin(); it != counts.end();) {
      size_t semi = it->first.find(';');
      if (it->first.compare(0, semi, party_filter) != 0) {
        it = counts.erase(it);
      } else {
        ++it;
      }
    }
  }
  uint64_t total = 0;
  for (const auto& [key, n] : counts) total += n;
  std::ostringstream out;
  out << "# vf2boost folded cpu profile\n";
  out << "# hz " << impl_->opts.hz << "\n";
  out << "# samples " << total << "\n";
  out << "# dropped " << impl_->dropped.load(std::memory_order_relaxed)
      << "\n";
  if (!party_filter.empty()) out << "# party " << party_filter << "\n";
  for (const auto& [key, n] : counts) out << key << ' ' << n << "\n";
  return out.str();
}

bool Profiler::WriteFolded(const std::string& path,
                           const std::string& party_filter) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << FoldedText(party_filter);
  return static_cast<bool>(f);
}

ProfilerStats Profiler::stats() const {
  impl_->DrainNow();
  ProfilerStats s;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    s.samples = impl_->folded_samples;
  }
  s.dropped = impl_->dropped.load(std::memory_order_relaxed);
  s.threads = impl_->threads_armed.load(std::memory_order_relaxed);
  return s;
}

void ProfilerRegisterCurrentThread() {
  if (t_registration.entry != nullptr) return;
  // Force this thread's PhaseTag TLS into existence from normal code so
  // the handler never triggers lazy TLS allocation.
  MutablePhaseTag();
  auto* e = new ThreadEntry;
  e->tid = CurrentTid();
  e->pt = pthread_self();
  std::lock_guard<std::mutex> lk(RegistryMutex());
  Registry().push_back(e);
  t_registration.entry = e;
  auto* impl = static_cast<Profiler::Impl*>(
      g_active_impl.load(std::memory_order_acquire));
  if (impl != nullptr && ArmTimer(e, impl->hz())) {
    impl->threads_armed.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string CollectFoldedProfile(double seconds, int hz, std::string* error) {
  if (seconds <= 0 || seconds > 120) {
    if (error != nullptr) *error = "seconds must be in (0, 120]";
    return "";
  }
  std::lock_guard<std::mutex> lk(CollectMutex());
  auto window = std::chrono::duration<double>(seconds);
  Profiler* active = Profiler::Active();
  if (active != nullptr) {
    // A long-running profiler is live: serve the delta over the window.
    // CollectMutex keeps its Stop from tearing it down under us.
    auto base = active->Counts();
    std::this_thread::sleep_for(window);
    return active->FoldedText("", &base);
  }
  Profiler temp(ProfilerOptions{hz > 0 ? hz : 99, 48});
  if (!temp.Start()) {
    if (error != nullptr) *error = "another profiler is already running";
    return "";
  }
  std::this_thread::sleep_for(window);
  temp.StopLocked();
  return temp.FoldedText();
}

// ---------------------------------------------------------------------
// Folded-profile validation
// ---------------------------------------------------------------------

bool ParseFoldedProfile(const std::string& text, FoldedProfileInfo* info,
                        std::string* error) {
  FoldedProfileInfo out;
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      if (line.rfind("# hz ", 0) == 0) out.hz = std::atoi(line.c_str() + 5);
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return fail("expected 'stack count'");
    }
    const std::string stack = line.substr(0, space);
    const std::string count_str = line.substr(space + 1);
    for (char c : count_str) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return fail("count is not a positive integer: '" + count_str + "'");
      }
    }
    uint64_t count = 0;
    try {
      count = std::stoull(count_str);
    } catch (...) {
      return fail("count out of range: '" + count_str + "'");
    }
    if (count == 0) return fail("count must be positive");
    if (stack.find(' ') != std::string::npos) {
      return fail("stack contains a space");
    }
    std::vector<std::string> comps;
    size_t pos = 0;
    while (pos <= stack.size()) {
      size_t semi = stack.find(';', pos);
      if (semi == std::string::npos) semi = stack.size();
      comps.push_back(stack.substr(pos, semi - pos));
      pos = semi + 1;
    }
    if (comps.size() < 2) return fail("need at least party;phase components");
    for (const std::string& c : comps) {
      if (c.empty()) return fail("empty stack component");
    }
    out.lines += 1;
    out.total_samples += count;
    if (comps[1] != "unknown") out.phase_tagged += count;
    out.samples_by_phase[comps[0] + "/" + comps[1]] += count;
  }
  if (info != nullptr) *info = out;
  return true;
}

// ---------------------------------------------------------------------
// Resource accounting
// ---------------------------------------------------------------------

ResourceUsage SampleResourceUsage() {
  ResourceUsage u;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size_pages = 0, rss_pages = 0;
    if (std::fscanf(f, "%ld %ld", &size_pages, &rss_pages) == 2) {
      u.rss_bytes = static_cast<uint64_t>(rss_pages) *
                    static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
    }
    std::fclose(f);
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is updated lazily by the kernel (unmap/exit accounting
    // points), so it can momentarily read below the live RSS; clamp to
    // keep the peak >= current invariant consumers rely on.
    u.peak_rss_bytes = std::max(
        static_cast<uint64_t>(ru.ru_maxrss) * 1024, u.rss_bytes);
    u.cpu_user_seconds =
        ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.cpu_sys_seconds = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  }
#if defined(VF2_MALLINFO2)
  // mallinfo2 walks glibc's arenas, which are not the heap when another
  // allocator (tcmalloc, jemalloc, a preloaded sanitizer) owns malloc, and
  // walking them from the watchdog thread can then crash. The gauges stay 0.
  static const bool glibc_malloc =
      dlsym(RTLD_DEFAULT, "malloc") == reinterpret_cast<void*>(&__libc_malloc);
  if (glibc_malloc) {
    struct mallinfo2 mi = mallinfo2();
    u.heap_allocated_bytes = static_cast<uint64_t>(mi.uordblks);
    u.heap_free_bytes = static_cast<uint64_t>(mi.fordblks);
  }
#endif
  return u;
}

std::string RenderHeapProfile() {
  ResourceUsage u = SampleResourceUsage();
  std::ostringstream out;
  out << "# vf2boost heap profile (point-in-time)\n";
  out << "rss_bytes " << u.rss_bytes << "\n";
  out << "peak_rss_bytes " << u.peak_rss_bytes << "\n";
  out << "heap_allocated_bytes " << u.heap_allocated_bytes << "\n";
  out << "heap_free_bytes " << u.heap_free_bytes << "\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", u.cpu_user_seconds);
  out << "cpu_user_seconds " << buf << "\n";
  std::snprintf(buf, sizeof(buf), "%.3f", u.cpu_sys_seconds);
  out << "cpu_sys_seconds " << buf << "\n";
  return out.str();
}

}  // namespace obs
}  // namespace vf2boost
