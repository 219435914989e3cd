#include "common/bytes.hpp"

#include <algorithm>

namespace edhp {

void ByteWriter::grow(std::size_t n) {
  buf_.resize(std::max(len_ + n, std::max<std::size_t>(64, 2 * buf_.size())));
}

void ByteWriter::throw_too_long() {
  throw DecodeError("str16: string too long to serialize");
}

void ByteWriter::patch_u32(std::size_t at, std::uint32_t v) {
  if (at > len_ || len_ - at < 4) {
    throw DecodeError("patch_u32: offset out of range");
  }
  for (int i = 0; i < 4; ++i) {
    buf_[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xFF);
    v >>= 8;
  }
}

void ByteReader::throw_truncated(std::size_t n) const {
  throw DecodeError("ByteReader: truncated buffer (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(remaining()) + ")");
}

void ByteReader::expect_done(std::string_view context) const {
  if (!done()) {
    throw DecodeError(std::string(context) + ": " + std::to_string(remaining()) +
                      " trailing bytes");
  }
}

}  // namespace edhp
