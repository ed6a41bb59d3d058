#include "common/json_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace colt {
namespace json {

void AppendString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(double v, std::string* out) {
  char buf[40];
  // %.17g round-trips every finite double exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendInt(int64_t v, std::string* out) {
  *out += std::to_string(v);
}

void AppendIntArray(const std::vector<int64_t>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendInt(values[i], out);
  }
  out->push_back(']');
}

void AppendDoubleArray(const std::vector<double>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendDouble(values[i], out);
  }
  out->push_back(']');
}

std::string_view StripLineEnding(std::string_view line) {
  while (!line.empty()) {
    const char c = line.back();
    if (c != ' ' && c != '\t' && c != '\r') break;
    line.remove_suffix(1);
  }
  return line;
}

bool Reader::AtEnd() {
  SkipSpace();
  return pos_ >= text_.size();
}

bool Reader::Consume(char c) {
  SkipSpace();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool Reader::ReadString(std::string* out) {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != '"') return false;
  ++pos_;
  out->clear();
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\' && pos_ < text_.size()) {
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const char* hex = text_.data() + pos_;
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc() || end != hex + 4) return false;
          // The writer escapes single bytes only; a wider code point has
          // no one-byte reading.
          if (code > 0xff) return false;
          pos_ += 4;
          c = static_cast<char>(code);
          break;
        }
        default:
          c = esc;
      }
    }
    out->push_back(c);
  }
  if (pos_ >= text_.size()) return false;
  ++pos_;  // closing quote
  return true;
}

bool Reader::ReadDouble(double* out) {
  SkipSpace();
  // Only what AppendDouble's %.17g prints: an optional '-', then digits
  // with an optional fraction and exponent, or inf / nan. strtod takes far
  // more (hex floats, "infinity", a leading '+', "nan(...)").
  const size_t start = pos_;
  size_t end = start;
  const auto at = [&](size_t i) { return i < text_.size() ? text_[i] : '\0'; };
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  const auto skip_digits = [&](size_t i) {
    while (is_digit(at(i))) ++i;
    return i;
  };
  if (at(end) == '-') ++end;
  if (text_.substr(end, 3) == "inf" || text_.substr(end, 3) == "nan") {
    end += 3;
  } else {
    const size_t digits = end;
    end = skip_digits(end);
    if (end == digits) return false;
    if (at(end) == '.' && is_digit(at(end + 1))) end = skip_digits(end + 1);
    if (at(end) == 'e' || at(end) == 'E') {
      size_t exponent = end + 1;
      if (at(exponent) == '+' || at(exponent) == '-') ++exponent;
      if (is_digit(at(exponent))) end = skip_digits(exponent);
    }
  }
  // The token must end here: "0x1p3", "infinity", "1.e5" and "nan(1)"
  // carry on past a valid prefix.
  const char next = at(end);
  if (std::isalnum(static_cast<unsigned char>(next)) || next == '.' ||
      next == '(' || next == '_' || next == '+' || next == '-') {
    return false;
  }
  // A string_view is not NUL-terminated, so hand strtod a copy.
  const std::string token(text_.substr(start, end - start));
  *out = std::strtod(token.c_str(), nullptr);
  pos_ = end;
  return true;
}

bool Reader::ReadInt(int64_t* out) {
  SkipSpace();
  const char* begin = text_.data() + pos_;
  const char* limit = text_.data() + text_.size();
  int64_t value = 0;
  const auto [end, ec] = std::from_chars(begin, limit, value);
  if (ec != std::errc()) return false;
  // "2.5" or "1e30" would otherwise read as their leading digits.
  if (end != limit && (*end == '.' || *end == 'e' || *end == 'E')) {
    return false;
  }
  pos_ += static_cast<size_t>(end - begin);
  *out = value;
  return true;
}

bool Reader::ReadDoubleArray(std::vector<double>* out) {
  if (!Consume('[')) return false;
  out->clear();
  if (Consume(']')) return true;
  while (true) {
    double v = 0.0;
    if (!ReadDouble(&v)) return false;
    out->push_back(v);
    if (Consume(']')) return true;
    if (!Consume(',')) return false;
  }
}

bool Reader::ReadIntArray(std::vector<int64_t>* out) {
  if (!Consume('[')) return false;
  out->clear();
  if (Consume(']')) return true;
  while (true) {
    int64_t v = 0;
    if (!ReadInt(&v)) return false;
    out->push_back(v);
    if (Consume(']')) return true;
    if (!Consume(',')) return false;
  }
}

void Reader::SkipSpace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t')) {
    ++pos_;
  }
}

}  // namespace json
}  // namespace colt
