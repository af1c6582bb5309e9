// Simulated outputs of one benchmark run, and the committed reference
// values they are checked against.
//
// Every run of an input yields a fixed, ordered list of named exact
// values (makespan, event counts, fingerprints, digests). For the default
// seed the expected list comes from perfbench/reference.json; for any
// other seed it is the input's first run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace perfbench {

using Outputs = std::vector<std::pair<std::string, std::uint64_t>>;

/// Value of `key` in `out`; 0 when absent.
[[nodiscard]] std::uint64_t output(const Outputs& out, const std::string& key);

/// Human description of the first difference, or "" when equal.
[[nodiscard]] std::string diff_outputs(const Outputs& expected,
                                       const Outputs& got);

/// Reference outputs per "<workload>[.tiny]/<input>" key.
using ReferenceTable = std::map<std::string, Outputs>;

struct ReferenceFile {
  std::uint64_t seed = 0;
  ReferenceTable table;
};

[[nodiscard]] rw::Result<ReferenceFile> load_reference(const std::string& path);
[[nodiscard]] rw::Status save_reference(const std::string& path,
                                        const ReferenceFile& ref);

}  // namespace perfbench
