// Bounds-checked binary serialization helpers.
//
// All Vuvuzela wire structures are fixed-size, so the reader/writer here is
// deliberately minimal: big-endian integers, raw byte copies, and hard bounds
// checks (a malformed frame from an adversarial client must never read out of
// bounds).

#ifndef VUVUZELA_SRC_WIRE_SERDE_H_
#define VUVUZELA_SRC_WIRE_SERDE_H_

#include <cstdint>
#include <optional>

#include "src/util/bytes.h"

namespace vuvuzela::wire {

class Writer {
 public:
  explicit Writer(size_t reserve = 0) { buffer_.reserve(reserve); }

  void U8(uint8_t v) { buffer_.push_back(v); }
  void U16(uint16_t v) {
    buffer_.push_back(static_cast<uint8_t>(v >> 8));
    buffer_.push_back(static_cast<uint8_t>(v));
  }
  void U32(uint32_t v) {
    const size_t n = buffer_.size();
    buffer_.resize(n + 4);
    util::StoreBe32(buffer_.data() + n, v);
  }
  void U64(uint64_t v) {
    const size_t n = buffer_.size();
    buffer_.resize(n + 8);
    util::StoreBe64(buffer_.data() + n, v);
  }
  void Raw(util::ByteSpan data) { util::Append(buffer_, data); }
  // Length-prefixed variable bytes.
  void Var(util::ByteSpan data) {
    U32(static_cast<uint32_t>(data.size()));
    Raw(data);
  }

  util::Bytes Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  util::Bytes buffer_;
};

// Reads fail-soft: each accessor returns nullopt once the input is exhausted,
// and `ok()` reports whether every read so far succeeded.
class Reader {
 public:
  explicit Reader(util::ByteSpan data) : data_(data) {}

  std::optional<uint8_t> U8() {
    if (!Ensure(1)) {
      return std::nullopt;
    }
    return data_[pos_++];
  }
  std::optional<uint16_t> U16() {
    if (!Ensure(2)) {
      return std::nullopt;
    }
    uint16_t v = static_cast<uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::optional<uint32_t> U32() {
    if (!Ensure(4)) {
      return std::nullopt;
    }
    uint32_t v = util::LoadBe32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::optional<uint64_t> U64() {
    if (!Ensure(8)) {
      return std::nullopt;
    }
    uint64_t v = util::LoadBe64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  std::optional<util::ByteSpan> Raw(size_t n) {
    if (!Ensure(n)) {
      return std::nullopt;
    }
    util::ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::optional<util::ByteSpan> Var() {
    auto len = U32();
    if (!len) {
      return std::nullopt;
    }
    return Raw(*len);
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Ensure(size_t n) {
    if (data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  util::ByteSpan data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vuvuzela::wire

#endif  // VUVUZELA_SRC_WIRE_SERDE_H_
