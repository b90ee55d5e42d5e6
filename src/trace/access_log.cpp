#include "trace/access_log.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace agtram::trace {

namespace {

bool is_blank(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' || ch == '\f';
}

/// Parses exactly four whitespace-separated unsigned decimal fields —
/// no sign, no fraction, no overflow, nothing after the fourth.
bool parse_fields(const std::string& line, std::uint32_t (&field)[4]) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::uint32_t& value : field) {
    while (p != end && is_blank(*p)) ++p;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{} || (next != end && !is_blank(*next))) return false;
    p = next;
  }
  while (p != end && is_blank(*p)) ++p;
  return p == end;
}

}  // namespace

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
    if (!parse_fields(line, field)) {
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
