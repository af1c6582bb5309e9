// The rwert driver, as a library so tests exercise exactly what the CLI
// does: open N tenant sessions against one ert::Service, submit template
// jobs with seeded Poisson arrivals, print the per-tenant QoS table, and
// write the deterministic ERT_service.json / ERT_trace.json documents.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "ert/service.hpp"
#include "tools/cli_common.hpp"

namespace rw::ert {

struct ErtOptions : cli::CommonOptions {
  std::size_t cores = 8;          // --cores N
  std::size_t tenants = 2;        // --tenants N
  std::uint64_t jobs = 8;         // --jobs J (per tenant)
  std::uint64_t scale = 1;        // --scale K (template cycle multiplier)
  std::size_t reserved = 0;       // --reserved R (first R tenants carved)
  std::uint64_t mean_gap_us = 25; // --gap-us G (mean inter-arrival)
  std::vector<std::string> templates;  // positional; empty = all
};

/// Parse rwert's argv (without argv[0]).
Result<ErtOptions> parse_ert_args(const std::vector<std::string>& args);

struct ErtReport {
  std::vector<TenantStats> tenants;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  int exit_code = 0;
  std::string json_path;   // empty when not written
  std::string trace_path;  // empty when not written
};

/// The combined document (schema rw-ert-run-1): the envelope payload.
std::string ert_json(const ErtOptions& opts,
                     const std::vector<TenantStats>& tenants);

/// Run per options, writing human output (or the JSON doc) to `out`.
ErtReport run_ert(const ErtOptions& opts, std::ostream& out);

}  // namespace rw::ert
