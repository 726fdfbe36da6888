#include "net/frame.h"

#include "common/crc32.h"

namespace chaser::net {

void AppendVarint(std::string* out, std::uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

DecodeStatus DecodeVarint(const char* buf, std::size_t size, std::size_t* pos,
                          std::uint64_t* value) {
  std::uint64_t v = 0;
  std::size_t p = *pos;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p >= size) return DecodeStatus::kNeedMore;
    const std::uint8_t byte = static_cast<std::uint8_t>(buf[p++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The tenth byte carries bit 63 alone, and a terminal 0x00 after a
      // continuation byte adds no bits (an overlong alias of a shorter form).
      if ((shift == 63 && byte > 1) || (byte == 0 && shift > 0)) {
        return DecodeStatus::kMalformed;
      }
      *value = v;
      *pos = p;
      return DecodeStatus::kOk;
    }
  }
  return DecodeStatus::kMalformed;  // the tenth byte continues
}

void AppendFrame(std::string* out, const std::string& payload) {
  AppendVarint(out, payload.size());
  out->append(payload);
  const std::uint32_t crc = Crc32(payload.data(), payload.size());
  out->push_back(static_cast<char>(crc & 0xFF));
  out->push_back(static_cast<char>((crc >> 8) & 0xFF));
  out->push_back(static_cast<char>((crc >> 16) & 0xFF));
  out->push_back(static_cast<char>((crc >> 24) & 0xFF));
}

FrameDecoder::Result FrameDecoder::Next(std::string* payload) {
  if (poisoned_) return Result::kError;
  // Compact once the consumed prefix dominates, so long-lived connections
  // do not grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  std::size_t p = pos_;
  std::uint64_t len = 0;
  switch (DecodeVarint(buf_.data(), buf_.size(), &p, &len)) {
    case DecodeStatus::kNeedMore:
      return Result::kNeedMore;
    case DecodeStatus::kMalformed:
      poisoned_ = true;
      error_ = "malformed frame length varint";
      return Result::kError;
    case DecodeStatus::kOk:
      break;
  }
  if (len == 0) {
    poisoned_ = true;
    error_ = "zero-length frame";
    return Result::kError;
  }
  if (len > kMaxFramePayload) {
    poisoned_ = true;
    error_ = "oversized frame (" + std::to_string(len) + " bytes)";
    return Result::kError;
  }
  if (buf_.size() - p < len + 4) return Result::kNeedMore;
  const char* body = buf_.data() + p;
  const std::uint32_t want = Crc32(body, len);
  const char* c = body + len;
  const std::uint32_t got =
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(c[0])) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c[2])) << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c[3])) << 24);
  if (want != got) {
    poisoned_ = true;
    error_ = "frame CRC mismatch";
    return Result::kError;
  }
  payload->assign(body, len);
  pos_ = p + len + 4;
  return Result::kFrame;
}

}  // namespace chaser::net
