// Topology serialisation: a plain edge-list format so generated networks
// can be persisted, inspected, and fed back into the tools (or replaced
// with externally measured topologies of the same shape).
//
// Format:
//   # comments
//   nodes <M>
//   <a> <b> <cost>          one line per undirected edge,
//                           1 <= cost < 2^32 - 1 (kUnreachable)
#pragma once

#include <iosfwd>

#include "net/graph.hpp"

namespace agtram::net {

void write_graph(std::ostream& os, const Graph& graph);

/// Throws std::runtime_error on malformed input, out-of-range endpoints, or
/// costs outside [1, kUnreachable).
Graph read_graph(std::istream& is);

}  // namespace agtram::net
