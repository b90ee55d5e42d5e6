// Log-processing pipeline (paper Section 5, trace preparation).
//
// "we wrote a script that returned: only those objects which were present in
//  all the logs (25,000 in our case), the total number of requests from a
//  particular client for an object, the average and the variance of the
//  object size. From this log we chose the top five hundred clients ...
//  A random mapping was then performed of the clients to the nodes of the
//  topologies. Note that this mapping is not 1-1, rather 1-M."
//
// This module reproduces exactly that script: filter -> aggregate -> top-K
// clients -> 1-to-many client/server mapping -> per-(server, object) read
// demand, which is what the DRP instance builder consumes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/access_log.hpp"

namespace agtram::trace {

struct PipelineConfig {
  /// Keep this many of the busiest clients (paper: 500).
  std::uint32_t top_clients = 500;
  /// Number of servers in the target topology.
  std::uint32_t servers = 100;
  /// Each client is mapped onto between min_fanout and max_fanout distinct
  /// servers ("not 1-1, rather 1-M"); its requests are split across them.
  std::uint32_t min_fanout = 1;
  std::uint32_t max_fanout = 4;
  std::uint64_t seed = 7;
};

/// A server's aggregated read demand for one object.
struct ServerReads {
  std::uint32_t server;
  std::uint64_t reads;
};

/// The pipeline's output: a compacted object catalogue plus sparse
/// per-object read demand.
struct Workload {
  /// Compact index -> original ObjectId (objects present in every day log).
  std::vector<ObjectId> object_ids;
  /// Rounded mean delivered units per object (>= 1).
  std::vector<std::uint32_t> object_units;
  /// Per-object delivered-size variance (the paper uses it to parameterise
  /// update sizes).
  std::vector<double> size_variance;
  /// reads[k]: demand rows sorted by server id; servers with zero demand are
  /// omitted (sparse).
  std::vector<std::vector<ServerReads>> reads;
  /// Requests surviving the filters (paper: 1-2 million per instance).
  std::uint64_t total_requests = 0;

  std::size_t object_count() const noexcept { return object_ids.size(); }
};

/// Objects appearing in every one of the given day logs, sorted ascending.
std::vector<ObjectId> objects_in_all_days(const std::vector<DayLog>& days);

/// Busiest `k` clients by total request count (ties: lower id first),
/// sorted ascending by id.
std::vector<ClientId> top_clients(const std::vector<DayLog>& days,
                                  std::uint32_t k);

/// The 1-to-many client -> servers mapping; mapping[c] lists the distinct
/// servers client c's requests are spread over.
std::vector<std::vector<std::uint32_t>> map_clients_to_servers(
    const std::vector<ClientId>& clients, const PipelineConfig& cfg);

/// Full pipeline.  Deterministic in (days, cfg) for a given standard
/// library: the pseudo-random remainder split walks the (client, object)
/// pairs in the iteration order of a std::unordered_map<u64, u64> keyed
/// client * objects + object that received each pair once, at its first
/// request.  That order is not specified by the C++ standard, so another
/// standard library may split remainders differently (per-object totals,
/// object catalogue and size statistics do not depend on it).  The trace
/// goldens pin the libstdc++ order; a portable canonical pair order is
/// deferred because adopting it would re-pin them.
Workload run_pipeline(const std::vector<DayLog>& days,
                      const PipelineConfig& cfg);

}  // namespace agtram::trace
