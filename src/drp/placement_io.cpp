#include "drp/placement_io.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"

namespace agtram::drp {

void write_placement(std::ostream& os, const ReplicaPlacement& placement) {
  const Problem& p = placement.problem();
  os << "# agtram replica scheme: " << placement.extra_replica_count()
     << " extra replicas over " << p.object_count() << " objects\n";
  for (ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto replicators = placement.replicators(k);
    if (replicators.size() <= 1) continue;  // primary only
    os << k << ':';
    for (const ServerId i : replicators) {
      if (i != p.primary[k]) os << ' ' << i;
    }
    os << '\n';
  }
}

ReplicaPlacement read_placement(std::istream& is, const Problem& problem) {
  ReplicaPlacement placement(problem);
  std::string line;
  std::vector<std::uint64_t> servers;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("placement line " + std::to_string(line_number) +
                               ": " + what);
    };
    // Strip comments and blank lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const char* first = line.data();
    if (common::skip_blanks(first, line.data() + line.size())) continue;

    const auto colon = line.find(':');
    if (colon == std::string::npos) fail("missing ':'");
    const std::string_view text(line);
    std::uint64_t object = 0;
    if (!common::parse_fields<std::uint64_t>(text.substr(0, colon),
                                             {&object, 1})) {
      fail("bad object index");
    }
    if (object >= problem.object_count()) fail("object index out of range");

    servers.clear();
    if (!common::parse_field_list(text.substr(colon + 1), servers)) {
      fail("bad server id");
    }
    const auto k = static_cast<ObjectIndex>(object);
    for (const std::uint64_t server : servers) {
      if (server >= problem.server_count()) fail("server id out of range");
      const auto i = static_cast<ServerId>(server);
      if (placement.is_replicator(i, k)) fail("duplicate replica");
      if (!placement.can_replicate(i, k)) fail("capacity violated");
      placement.add_replica(i, k);
    }
  }
  return placement;
}

}  // namespace agtram::drp
