#include "net/graph_io.hpp"

#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "net/shortest_paths.hpp"

namespace agtram::net {

void write_graph(std::ostream& os, const Graph& graph) {
  os << "# agtram topology: " << graph.node_count() << " nodes, "
     << graph.edge_count() << " edges\n";
  os << "nodes " << graph.node_count() << '\n';
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    for (const Edge& e : graph.neighbors(u)) {
      if (e.to > u) os << u << ' ' << e.to << ' ' << e.cost << '\n';
    }
  }
}

Graph read_graph(std::istream& is) {
  constexpr std::string_view kHeader = "nodes";
  std::optional<Graph> graph;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("topology line " + std::to_string(line_number) +
                               ": " + what);
    };
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const char* first = line.data();
    if (common::skip_blanks(first, line.data() + line.size())) continue;

    if (!graph) {
      const std::string_view rest(first, line.data() + line.size() - first);
      std::uint64_t nodes = 0;
      if (!rest.starts_with(kHeader) || rest.size() == kHeader.size() ||
          !common::is_blank(rest[kHeader.size()]) ||
          !common::parse_fields<std::uint64_t>(rest.substr(kHeader.size()),
                                               {&nodes, 1}) ||
          nodes == 0) {
        fail("expected 'nodes <M>' header");
      }
      if (nodes > std::numeric_limits<NodeId>::max()) {
        fail("node count exceeds the NodeId range");
      }
      graph.emplace(nodes);
      continue;
    }
    std::uint64_t edge[3];  // a, b, cost
    if (!common::parse_fields<std::uint64_t>(line, edge)) {
      fail("expected '<a> <b> <cost>'");
    }
    const auto [a, b, cost] = edge;
    if (a >= graph->node_count() || b >= graph->node_count()) {
      fail("endpoint out of range");
    }
    // kUnreachable is the "no path" sentinel, never a link cost.
    if (cost == 0 || cost >= kUnreachable) {
      fail("cost out of range");
    }
    graph->add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                    static_cast<Cost>(cost));
  }
  if (!graph) throw std::runtime_error("topology: missing 'nodes' header");
  return std::move(*graph);
}

}  // namespace agtram::net
