// Incremental NDJSON frame codec. The wire format is one request or
// response per '\n'-terminated line; the decoder turns an arbitrary
// sequence of byte chunks (torn reads included) back into complete
// lines, enforcing a hard per-line byte cap so a runaway or malicious
// peer cannot make the server buffer unbounded input.
//
// The decoder is a plain state machine with no I/O: the event loop feeds
// it recv() chunks, tests feed it adversarial splits directly.

#ifndef RDFMR_NET_FRAME_H_
#define RDFMR_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rdfmr {
namespace net {

class LineDecoder {
 public:
  /// \brief `max_line_bytes` caps one line's payload (the '\n' itself is
  /// not counted). 0 means unlimited.
  explicit LineDecoder(uint64_t max_line_bytes = 0)
      : max_line_bytes_(max_line_bytes) {}

  /// \brief Appends `data` and moves every now-complete line into
  /// `*lines` (empty lines are dropped — they are keepalive padding in
  /// NDJSON). Returns false when the partial line exceeds the cap; the
  /// decoder is then poisoned and every later Feed fails too (a stream
  /// cannot resynchronize after an oversize frame).
  bool Feed(const char* data, size_t size, std::vector<std::string>* lines);

  /// \brief Bytes buffered for the current (incomplete) line.
  size_t pending_bytes() const { return buffer_.size(); }
  bool overflowed() const { return overflowed_; }
  uint64_t max_line_bytes() const { return max_line_bytes_; }

 private:
  uint64_t max_line_bytes_;
  std::string buffer_;
  bool overflowed_ = false;
};

/// \brief Frames one line for the wire: strips nothing, appends '\n'.
/// `line` must not itself contain '\n' (RDFMR_CHECKed by callers that
/// build lines from JsonValue::Dump, which never emits raw newlines).
inline std::string EncodeLine(std::string line) {
  line.push_back('\n');
  return line;
}

}  // namespace net
}  // namespace rdfmr

#endif  // RDFMR_NET_FRAME_H_
