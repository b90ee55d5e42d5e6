// Access-log model.
//
// The paper replays the Soccer World Cup 1998 web-server logs: thirteen
// Friday (24h) logs, May 1 - July 24 1998, reduced to the objects present in
// every log and the top-500 clients.  The raw trace is not redistributable,
// so src/trace/worldcup.hpp synthesises logs with the same published
// statistics; this header defines the records those logs are made of plus a
// simple text serialisation so the pipeline can also ingest external logs in
// the same shape.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace agtram::trace {

using ClientId = std::uint32_t;
using ObjectId = std::uint32_t;

/// One GET served by the origin: which client fetched which object and how
/// many data units went over the wire (object size +/- delivery noise).
struct Request {
  ClientId client;
  ObjectId object;
  std::uint32_t units;
};

/// One day's worth of requests (the paper uses 24h Friday logs).
struct DayLog {
  std::uint32_t day_index = 0;
  std::vector<Request> requests;
};

/// Whitespace-separated "day client object units" lines.
void write_day_log(std::ostream& os, const DayLog& log);

/// Parses lines produced by write_day_log: exactly four unsigned decimal
/// fields per line, each fitting 32 bits.  Throws std::runtime_error, naming
/// the line number, on anything else (signs, fractions, extra tokens,
/// overflow) or on mixed day indices.  Empty lines are skipped; stops at EOF.
DayLog read_day_log(std::istream& is);

}  // namespace agtram::trace
