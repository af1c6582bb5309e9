#include "host.hpp"

#include <dlfcn.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <fstream>

#include "common/json.hpp"

namespace perfbench {
namespace {

std::atomic<unsigned> g_live{1};  // the main thread
std::atomic<unsigned> g_peak{1};

struct Trampoline {
  void* (*fn)(void*);
  void* arg;
};

void* run_counted(void* p) {
  const Trampoline t = *static_cast<Trampoline*>(p);
  delete static_cast<Trampoline*>(p);
  struct Exit {
    ~Exit() { g_live.fetch_sub(1); }
  } on_exit;
  return t.fn(t.arg);
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos)
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  h.compiler = PERFBENCH_CXX_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  h.ndebug = true;
#endif
  return h;
}

std::string host_json(const HostInfo& h) {
  rw::json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.key("cpu_model").value(h.cpu_model);
  w.key("nproc").value(static_cast<std::uint64_t>(h.nproc));
  w.key("compiler").value(h.compiler);
  w.key("build_type").value(h.build_type);
  w.key("ndebug").value(h.ndebug);
  w.end_object();
  return w.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned peak_threads() { return g_peak.load(); }

}  // namespace perfbench

// Every thread the library starts (std::thread, std::jthread) goes
// through pthread_create; this definition in the executable takes
// precedence over libc's, counts the thread and forwards to libc.
extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  using Fn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                     void*);
  static const auto real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "pthread_create"));
  const unsigned live = perfbench::g_live.fetch_add(1) + 1;
  unsigned peak = perfbench::g_peak.load();
  while (live > peak && !perfbench::g_peak.compare_exchange_weak(peak, live)) {
  }
  auto* t = new perfbench::Trampoline{start, arg};
  const int rc = real(thread, attr, perfbench::run_counted, t);
  if (rc != 0) {
    delete t;
    perfbench::g_live.fetch_sub(1);
  }
  return rc;
}
