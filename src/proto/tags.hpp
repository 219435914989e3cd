#pragma once
// eDonkey tag system: self-describing (type, name, value) attributes used in
// login, offer-files and search messages. We implement the two types the
// 2008 protocol actually relies on for these messages — strings and 32-bit
// integers — with the common 1-byte "special" tag names.
//
// Tags come in two flavours sharing one wire format: the owning Tag (value
// holds a std::string copy) and the non-owning TagView (value holds a
// std::string_view borrowing the receive buffer). View-decoded tags are
// appended to a caller-supplied arena vector and addressed by TagRange
// indices, so arena growth never invalidates a previously decoded message.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "proto/opcodes.hpp"

namespace edhp::proto {

/// A single tag: 1-byte name plus a string or u32 value.
struct Tag {
  std::uint8_t name = 0;
  std::variant<std::string, std::uint32_t> value;

  [[nodiscard]] static Tag string_tag(std::uint8_t name, std::string v);
  [[nodiscard]] static Tag u32_tag(std::uint8_t name, std::uint32_t v);

  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value);
  }
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] std::uint32_t as_u32() const;

  bool operator==(const Tag&) const = default;
};

/// Non-owning tag: the string value (if any) borrows the buffer the tag was
/// decoded from and is valid only as long as that buffer lives.
struct TagView {
  std::uint8_t name = 0;
  std::variant<std::string_view, std::uint32_t> value;

  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string_view>(value);
  }
  [[nodiscard]] std::string_view as_string() const;
  [[nodiscard]] std::uint32_t as_u32() const;

  bool operator==(const TagView&) const = default;
};

/// Index range into an arena vector of TagView. Ranges stay valid when the
/// arena grows (they are indices, not pointers).
struct TagRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Serialize one tag from borrowed fields: a string tag or a u32 tag with a
/// 1-byte special name.
inline void encode_tag(ByteWriter& w, std::uint8_t name, std::string_view value) {
  w.u8(kTagTypeString);
  w.u16(1);
  w.u8(name);
  w.str16(value);
}
inline void encode_tag(ByteWriter& w, std::uint8_t name, std::uint32_t value) {
  w.u8(kTagTypeU32);
  w.u16(1);
  w.u8(name);
  w.u32(value);
}
/// Serialize one tag.
void encode_tag(ByteWriter& w, const Tag& tag);

/// Wire size of a string tag holding `value_bytes` bytes, and of a u32 tag.
[[nodiscard]] constexpr std::size_t string_tag_bytes(std::size_t value_bytes) {
  return 1 + 2 + 1 + 2 + value_bytes;
}
inline constexpr std::size_t kU32TagBytes = 1 + 2 + 1 + 4;
/// Wire size of a tag list with its u32 count prefix.
[[nodiscard]] std::size_t encoded_size(std::span<const Tag> tags);
/// Parse one tag; throws DecodeError on malformed input.
[[nodiscard]] Tag decode_tag(ByteReader& r);
/// Parse one tag without copying its string value.
[[nodiscard]] TagView decode_tag_view(ByteReader& r);

/// Serialize a tag list with its u32 count prefix.
void encode_tags(ByteWriter& w, std::span<const Tag> tags);
/// Parse a tag list; `max_tags` bounds memory for hostile input.
[[nodiscard]] std::vector<Tag> decode_tags(ByteReader& r, std::size_t max_tags = 256);
/// Parse a tag list into `arena` (appending) and return the range covering
/// the freshly decoded tags. Accept/reject behaviour matches decode_tags.
TagRange decode_tags_view(ByteReader& r, std::vector<TagView>& arena,
                          std::size_t max_tags = 256);

/// First tag with the given name, or nullptr. Accepts any contiguous tag
/// sequence (owned vectors and arena spans alike).
[[nodiscard]] const Tag* find_tag(std::span<const Tag> tags, std::uint8_t name);
[[nodiscard]] const TagView* find_tag(std::span<const TagView> tags,
                                      std::uint8_t name);

/// Typed lookups for interpreting tags after decode. A tag whose value type
/// does not match counts as absent: hostile peers can put a u32 where a name
/// string belongs, and that must not throw past the decode guard.
[[nodiscard]] const std::string* find_string_tag(std::span<const Tag> tags,
                                                 std::uint8_t name);
[[nodiscard]] const std::uint32_t* find_u32_tag(std::span<const Tag> tags,
                                                std::uint8_t name);
[[nodiscard]] const std::string_view* find_string_tag(
    std::span<const TagView> tags, std::uint8_t name);
[[nodiscard]] const std::uint32_t* find_u32_tag(std::span<const TagView> tags,
                                                std::uint8_t name);

}  // namespace edhp::proto
