#ifndef COLT_COMMON_JSON_UTIL_H_
#define COLT_COMMON_JSON_UTIL_H_

/// Minimal JSON writer/reader shared by the JSONL exporters (metrics,
/// spans, provenance). The writer emits a deliberately small JSON
/// subset — flat objects with string, number, number-array and flat
/// string-map values — so the reader can stay dependency-free. Reader
/// and writer are inverses only over that subset: json::Reader
/// guarantees to parse exactly what the Append* helpers write.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace colt {
namespace json {

/// Appends `s` as a double-quoted JSON string, escaping quotes,
/// backslashes, newlines, tabs and other control characters.
void AppendString(std::string_view s, std::string* out);

/// Appends a double with %.17g, which round-trips every finite double.
void AppendDouble(double v, std::string* out);

void AppendInt(int64_t v, std::string* out);

void AppendIntArray(const std::vector<int64_t>& values, std::string* out);
void AppendDoubleArray(const std::vector<double>& values, std::string* out);

/// Strips trailing spaces, tabs and carriage returns (JSONL files may
/// arrive with CRLF endings) so per-line parsers can insist on AtEnd().
std::string_view StripLineEnding(std::string_view line);

/// Cursor-based reader for the subset written above. All Read* methods
/// skip leading whitespace; failures leave the cursor in an unspecified
/// position, so callers bail out on the first false.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// True once only whitespace remains.
  bool AtEnd();
  /// Consumes `c` (after whitespace) and returns true, or leaves the
  /// cursor unmoved and returns false.
  bool Consume(char c);
  /// Reads a string. A \u escape must name a single byte (at most
  /// \u00ff), as the writer's are.
  bool ReadString(std::string* out);
  /// Reads a number as AppendDouble prints it: an optional '-', digits, an
  /// optional fraction and exponent, or inf, -inf, nan, -nan. Fails on any
  /// other spelling strtod would take, such as 0x1p3, infinity, +5 or
  /// nan(123).
  bool ReadDouble(double* out);
  /// Reads an integer token exactly. Fails on a fraction, an exponent,
  /// NaN, infinity or a value outside int64 — integers never pass
  /// through a double.
  bool ReadInt(int64_t* out);
  bool ReadDoubleArray(std::vector<double>* out);
  bool ReadIntArray(std::vector<int64_t>* out);

 private:
  void SkipSpace();

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace json
}  // namespace colt

#endif  // COLT_COMMON_JSON_UTIL_H_
