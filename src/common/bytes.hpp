#pragma once
// Bounds-checked little-endian byte buffer reader/writer.
//
// The eDonkey wire format is little-endian throughout; every protocol codec
// in edhp::proto is built on these two classes. Both throw DecodeError /
// never write out of bounds, so a malformed packet can never corrupt memory.
//
// The fixed-width fields are inline: a write costs one capacity check and a
// read one bounds check. Growing the buffer and building an error message
// stay out of line, so the hot path is a compare, a branch and the stores.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace edhp {

/// Thrown when a read runs past the end of a buffer or a length field is
/// inconsistent with the surrounding message.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian serializer producing a std::vector<std::uint8_t>.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Size the buffer for `reserve` bytes up front: a writer that stays
  /// within it allocates exactly once.
  explicit ByteWriter(std::size_t reserve) : buf_(reserve) {}

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  /// Raw bytes, appended verbatim.
  void bytes(std::span<const std::uint8_t> v) { raw(v.data(), v.size()); }

  /// eDonkey string: u16 length followed by raw bytes (no terminator).
  void str16(std::string_view s) {
    if (s.size() > 0xFFFF) throw_too_long();
    u16(static_cast<std::uint16_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Number of bytes written so far.
  [[nodiscard]] std::size_t size() const noexcept { return len_; }

  /// Overwrite a previously written u32 at byte offset `at` (used to patch
  /// message-length fields after the payload is known).
  void patch_u32(std::size_t at, std::uint32_t v);

  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
    return {buf_.data(), len_};
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept {
    buf_.resize(len_);  // shrinks in place
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    std::uint8_t* p = room(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  void raw(const void* data, std::size_t n) {
    if (n != 0) std::memcpy(room(n), data, n);
  }
  /// Claim the next `n` bytes of the buffer, growing it if they do not fit.
  std::uint8_t* room(std::size_t n) {
    if (buf_.size() - len_ < n) grow(n);
    std::uint8_t* p = buf_.data() + len_;
    len_ += n;
    return p;
  }
  void grow(std::size_t n);
  [[noreturn]] static void throw_too_long();

  /// Sized ahead of the writes; the bytes past len_ are not yet written.
  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;
};

/// Bounds-checked little-endian deserializer over a borrowed buffer.
/// The underlying bytes must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }

  /// Read exactly n raw bytes.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// eDonkey string: u16 length prefix then raw bytes.
  [[nodiscard]] std::string str16() { return std::string(str16_view()); }

  /// Non-owning variant of str16(): the returned view borrows the reader's
  /// underlying buffer and is valid only as long as that buffer lives.
  [[nodiscard]] std::string_view str16_view() {
    const std::size_t n = u16();
    auto raw = bytes(n);
    return {reinterpret_cast<const char*>(raw.data()), raw.size()};
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  /// Throw DecodeError unless the whole buffer has been consumed.
  void expect_done(std::string_view context) const;

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    const std::uint8_t* p = data_.data() + pos_;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (remaining() < n) throw_truncated(n);
  }
  [[noreturn]] void throw_truncated(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace edhp
