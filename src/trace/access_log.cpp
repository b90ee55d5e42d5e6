#include "trace/access_log.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace agtram::trace {

void write_day_log(std::ostream& os, const DayLog& log) {
  for (const Request& r : log.requests) {
    os << log.day_index << ' ' << r.client << ' ' << r.object << ' '
       << r.units << '\n';
  }
}

DayLog read_day_log(std::istream& is) {
  DayLog log;
  std::string line;
  bool first = true;
  for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
    if (line.empty()) continue;
    std::uint32_t field[4];
    if (!common::parse_fields<std::uint32_t>(line, field)) {
      throw std::runtime_error("malformed log line " +
                               std::to_string(line_no) + ": " + line);
    }
    if (first) {
      log.day_index = field[0];
      first = false;
    } else if (field[0] != log.day_index) {
      throw std::runtime_error("mixed day indices in one log (line " +
                               std::to_string(line_no) + ")");
    }
    log.requests.push_back(Request{field[1], field[2], field[3]});
  }
  return log;
}

}  // namespace agtram::trace
