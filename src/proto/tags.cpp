#include "proto/tags.hpp"

namespace edhp::proto {

Tag Tag::string_tag(std::uint8_t name, std::string v) {
  return Tag{name, std::move(v)};
}

Tag Tag::u32_tag(std::uint8_t name, std::uint32_t v) { return Tag{name, v}; }

const std::string& Tag::as_string() const {
  const auto* s = std::get_if<std::string>(&value);
  if (s == nullptr) {
    throw DecodeError("Tag: expected string value");
  }
  return *s;
}

std::uint32_t Tag::as_u32() const {
  const auto* v = std::get_if<std::uint32_t>(&value);
  if (v == nullptr) {
    throw DecodeError("Tag: expected u32 value");
  }
  return *v;
}

std::string_view TagView::as_string() const {
  const auto* s = std::get_if<std::string_view>(&value);
  if (s == nullptr) {
    throw DecodeError("Tag: expected string value");
  }
  return *s;
}

std::uint32_t TagView::as_u32() const {
  const auto* v = std::get_if<std::uint32_t>(&value);
  if (v == nullptr) {
    throw DecodeError("Tag: expected u32 value");
  }
  return *v;
}

void encode_tag(ByteWriter& w, const Tag& tag) {
  if (const auto* s = std::get_if<std::string>(&tag.value)) {
    encode_tag(w, tag.name, std::string_view(*s));
  } else {
    encode_tag(w, tag.name, std::get<std::uint32_t>(tag.value));
  }
}

std::size_t encoded_size(std::span<const Tag> tags) {
  std::size_t n = 4;
  for (const auto& t : tags) {
    const auto* s = std::get_if<std::string>(&t.value);
    n += s != nullptr ? string_tag_bytes(s->size()) : kU32TagBytes;
  }
  return n;
}

TagView decode_tag_view(ByteReader& r) {
  const std::uint8_t type = r.u8();
  const std::uint16_t name_len = r.u16();
  if (name_len == 0) {
    throw DecodeError("Tag: empty tag name");
  }
  // We emit 1-byte names; tolerate longer names by using the first byte as
  // the identifier, as real clients do for unknown metadata tags.
  const auto name_bytes = r.bytes(name_len);
  const std::uint8_t name = name_bytes[0];
  switch (type) {
    case kTagTypeString:
      return TagView{name, r.str16_view()};
    case kTagTypeU32:
      return TagView{name, r.u32()};
    default:
      throw DecodeError("Tag: unsupported tag type " + std::to_string(type));
  }
}

Tag decode_tag(ByteReader& r) {
  const TagView v = decode_tag_view(r);
  if (v.is_string()) {
    return Tag::string_tag(v.name, std::string(v.as_string()));
  }
  return Tag::u32_tag(v.name, v.as_u32());
}

void encode_tags(ByteWriter& w, std::span<const Tag> tags) {
  w.u32(static_cast<std::uint32_t>(tags.size()));
  for (const auto& t : tags) {
    encode_tag(w, t);
  }
}

std::vector<Tag> decode_tags(ByteReader& r, std::size_t max_tags) {
  const std::uint32_t n = r.u32();
  if (n > max_tags) {
    throw DecodeError("Tag list: count " + std::to_string(n) + " exceeds limit");
  }
  std::vector<Tag> tags;
  tags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    tags.push_back(decode_tag(r));
  }
  return tags;
}

TagRange decode_tags_view(ByteReader& r, std::vector<TagView>& arena,
                          std::size_t max_tags) {
  const std::uint32_t n = r.u32();
  if (n > max_tags) {
    throw DecodeError("Tag list: count " + std::to_string(n) + " exceeds limit");
  }
  TagRange range{static_cast<std::uint32_t>(arena.size()), n};
  for (std::uint32_t i = 0; i < n; ++i) {
    arena.push_back(decode_tag_view(r));
  }
  return range;
}

const Tag* find_tag(std::span<const Tag> tags, std::uint8_t name) {
  for (const auto& t : tags) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const TagView* find_tag(std::span<const TagView> tags, std::uint8_t name) {
  for (const auto& t : tags) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const std::string* find_string_tag(std::span<const Tag> tags,
                                   std::uint8_t name) {
  const Tag* t = find_tag(tags, name);
  return t ? std::get_if<std::string>(&t->value) : nullptr;
}

const std::uint32_t* find_u32_tag(std::span<const Tag> tags,
                                  std::uint8_t name) {
  const Tag* t = find_tag(tags, name);
  return t ? std::get_if<std::uint32_t>(&t->value) : nullptr;
}

const std::string_view* find_string_tag(std::span<const TagView> tags,
                                        std::uint8_t name) {
  const TagView* t = find_tag(tags, name);
  return t ? std::get_if<std::string_view>(&t->value) : nullptr;
}

const std::uint32_t* find_u32_tag(std::span<const TagView> tags,
                                  std::uint8_t name) {
  const TagView* t = find_tag(tags, name);
  return t ? std::get_if<std::uint32_t>(&t->value) : nullptr;
}

}  // namespace edhp::proto
