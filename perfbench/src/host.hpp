// Host fingerprint and process-level resource probes.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool ndebug = false;
};

[[nodiscard]] HostInfo host_info();
/// One-line JSON rendering of the fingerprint.
[[nodiscard]] std::string host_json(const HostInfo& h);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Most threads this process has had alive at once, the main thread
/// included. Counted exactly by wrapping pthread_create (host.cpp).
[[nodiscard]] unsigned peak_threads();

}  // namespace perfbench
