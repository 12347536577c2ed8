// Small string helpers used across the codebase (splitting serialized
// records, formatting table output, escaping literal values).

#ifndef RDFMR_COMMON_STRINGS_H_
#define RDFMR_COMMON_STRINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rdfmr {

/// \brief Splits `input` on `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view input, char sep);

/// \brief Splits into at most `max_fields` pieces; the last piece keeps any
/// remaining separators. max_fields must be >= 1.
std::vector<std::string> SplitN(std::string_view input, char sep,
                                size_t max_fields);

/// \brief Joins `parts` with `sep`.
std::string Join(std::span<const std::string> parts, char sep);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief Escapes `sep` and backslash occurrences so a field can be embedded
/// in a separator-delimited record losslessly.
std::string EscapeField(std::string_view field, char sep);

/// \brief Appends EscapeField(field, sep) to `*out`.
void AppendEscaped(std::string* out, std::string_view field, char sep);

/// \brief Appends `field` escaped once per nesting level of a record
/// format: the result equals applying EscapeField with seps[0] (the
/// innermost level), then seps[1], and so on. Fields that need no escaping
/// at any level are appended as they are.
void AppendEscapedNested(std::string* out, std::string_view field,
                         std::string_view seps);

/// \brief Inverse of EscapeField.
std::string UnescapeField(std::string_view field, char sep);

/// \brief UnescapeField without a copy when there is nothing to unescape:
/// returns `field` itself if it holds no backslash, otherwise unescapes it
/// into `*scratch` and returns a view of that.
std::string_view UnescapedView(std::string_view field, char sep,
                               std::string* scratch);

/// \brief Iterates the fields of a record split on `sep` as views over the
/// raw, still escaped bytes. Field boundaries are exactly SplitEscaped's
/// (a backslash protects the byte after it), so UnescapeField of each view
/// yields SplitEscaped's fields; nested formats split the views again and
/// unescape only where a field holds an escape. `sep` must not be a
/// backslash. A caller that knows `input` holds no backslash passes
/// `escapes` false: fields then end at the next separator, found in one
/// search.
class EscapedFieldReader {
 public:
  EscapedFieldReader(std::string_view input, char sep, bool escapes = true)
      : input_(input), sep_(sep), escapes_(escapes) {}

  /// Stores the next raw field in `*field`; false once all fields (at
  /// least one, even for empty input) were produced.
  bool Next(std::string_view* field);

 private:
  std::string_view input_;
  char sep_;
  bool escapes_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// \brief Splits a record on `sep`, honoring EscapeField escaping.
std::vector<std::string> SplitEscaped(std::string_view input, char sep);

/// \brief Joins fields with `sep`, escaping each with EscapeField.
std::string JoinEscaped(const std::vector<std::string>& fields, char sep);

/// \brief "12.3 MB"-style human formatting of a byte count.
std::string HumanBytes(uint64_t bytes);

/// \brief printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace rdfmr

#endif  // RDFMR_COMMON_STRINGS_H_
