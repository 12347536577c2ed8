#include "common/strings.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace rdfmr {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitN(std::string_view input, char sep,
                                size_t max_fields) {
  RDFMR_CHECK(max_fields >= 1) << "SplitN requires max_fields >= 1";
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i < input.size() && out.size() + 1 < max_fields; ++i) {
    if (input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  out.emplace_back(input.substr(start));
  return out;
}

std::string Join(std::span<const std::string> parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' ||
                   s[b] == '\n')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Escaping maps backslash, the separator and newline to two-byte sequences
// ("\\\\", "\\s", "\\n") and copies every other byte; runs of plain bytes
// are appended in one piece.
void AppendEscaped(std::string* out, std::string_view field, char sep) {
  size_t start = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    const char c = field[i];
    if (c != '\\' && c != sep && c != '\n') continue;
    out->append(field.data() + start, i - start);
    out->push_back('\\');
    out->push_back(c == '\\' ? '\\' : (c == sep ? 's' : 'n'));
    start = i + 1;
  }
  out->append(field.data() + start, field.size() - start);
}

std::string EscapeField(std::string_view field, char sep) {
  std::string out;
  out.reserve(field.size());
  AppendEscaped(&out, field, sep);
  return out;
}

void AppendEscapedNested(std::string* out, std::string_view field,
                         std::string_view seps) {
  // Bytes below 64 that some level escapes, as a bitmask; record formats
  // separate with control bytes and punctuation, so this covers them.
  uint64_t low = uint64_t{1} << '\n';
  bool high_sep = false;
  for (char sep : seps) {
    const auto u = static_cast<unsigned char>(sep);
    if (u < 64) {
      low |= uint64_t{1} << u;
    } else {
      high_sep = true;
    }
  }
  bool plain = true;
  for (char c : field) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\' || (u < 64 && ((low >> u) & 1)) ||
        (high_sep && seps.find(c) != std::string_view::npos)) {
      plain = false;
      break;
    }
  }
  if (plain) {
    out->append(field);
    return;
  }
  std::string escaped(field);
  for (char sep : seps) escaped = EscapeField(escaped, sep);
  out->append(escaped);
}

namespace {

// A backslash protects the byte after it; a trailing lone backslash is a
// literal byte.
void AppendUnescaped(std::string* out, std::string_view field, char sep) {
  size_t start = 0;
  for (size_t i = field.find('\\');
       i != std::string_view::npos && i + 1 < field.size();
       i = field.find('\\', start)) {
    out->append(field.data() + start, i - start);
    const char n = field[i + 1];
    out->push_back(n == 's' ? sep : (n == 'n' ? '\n' : n));
    start = i + 2;
  }
  out->append(field.data() + start, field.size() - start);
}

}  // namespace

std::string UnescapeField(std::string_view field, char sep) {
  std::string out;
  out.reserve(field.size());
  AppendUnescaped(&out, field, sep);
  return out;
}

std::string_view UnescapedView(std::string_view field, char sep,
                               std::string* scratch) {
  if (field.find('\\') == std::string_view::npos) return field;
  scratch->clear();
  AppendUnescaped(scratch, field, sep);
  return *scratch;
}

bool EscapedFieldReader::Next(std::string_view* field) {
  if (done_) return false;
  const char* data = input_.data();
  const size_t n = input_.size();
  size_t i = pos_;
  // Jump to the next separator; a backslash before it protects the byte
  // after it (possibly that separator), so resume the search past the pair.
  while (i < n) {
    const char* sep =
        static_cast<const char*>(std::memchr(data + i, sep_, n - i));
    const size_t stop = sep != nullptr ? static_cast<size_t>(sep - data) : n;
    const char* escape =
        escapes_
            ? static_cast<const char*>(std::memchr(data + i, '\\', stop - i))
            : nullptr;
    if (escape == nullptr) {
      i = stop;
      break;
    }
    i = std::min(n, static_cast<size_t>(escape - data) + 2);
  }
  *field = input_.substr(pos_, i - pos_);
  if (i == n) {
    done_ = true;
  } else {
    pos_ = i + 1;
  }
  return true;
}

std::vector<std::string> SplitEscaped(std::string_view input, char sep) {
  std::vector<std::string> out;
  EscapedFieldReader reader(input, sep);
  std::string_view raw;
  while (reader.Next(&raw)) AppendUnescaped(&out.emplace_back(), raw, sep);
  return out;
}

std::string JoinEscaped(const std::vector<std::string>& fields, char sep) {
  size_t bytes = fields.size();
  for (const std::string& field : fields) bytes += field.size();
  std::string out;
  out.reserve(bytes);
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(sep);
    AppendEscaped(&out, fields[i], sep);
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace rdfmr
