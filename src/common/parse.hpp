// Strict unsigned-decimal field parsing shared by the text formats (trace
// access logs, topology edge lists, replica schemes), so one rule holds in
// every parser: a field is a plain unsigned decimal that fits the target
// type — no sign, no fraction, no hex prefix, no overflow — and fields are
// separated by blanks (space, \t, \r, \v, \f).
#pragma once

#include <charconv>
#include <concepts>
#include <span>
#include <string_view>
#include <system_error>
#include <vector>

namespace agtram::common {

inline bool is_blank(char ch) noexcept {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' || ch == '\f';
}

/// Skips the blanks at `p`; true when that reaches `end`.
inline bool skip_blanks(const char*& p, const char* end) noexcept {
  while (p != end && is_blank(*p)) ++p;
  return p == end;
}

/// Reads the field starting at `p` (after any blanks) into `value` and
/// advances `p` past it.  False when no field is left or the field is
/// malformed or overflows T.
template <std::unsigned_integral T>
bool next_field(const char*& p, const char* end, T& value) noexcept {
  skip_blanks(p, end);
  const auto [next, ec] = std::from_chars(p, end, value);
  if (ec != std::errc{} || (next != end && !is_blank(*next))) return false;
  p = next;
  return true;
}

/// Parses exactly fields.size() fields from `text` and nothing else
/// (surrounding blanks allowed).
template <std::unsigned_integral T>
bool parse_fields(std::string_view text, std::span<T> fields) noexcept {
  const char* p = text.data();
  const char* const end = p + text.size();
  for (T& value : fields) {
    if (!next_field(p, end, value)) return false;
  }
  return skip_blanks(p, end);
}

/// Appends every field of `text` (zero or more) to `out`.  False on the
/// first malformed field; `out` then holds the fields before it.
template <std::unsigned_integral T>
bool parse_field_list(std::string_view text, std::vector<T>& out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (!skip_blanks(p, end)) {
    T value{};
    if (!next_field(p, end, value)) return false;
    out.push_back(value);
  }
  return true;
}

}  // namespace agtram::common
