#include "src/crypto/poly1305.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace vuvuzela::crypto {

namespace {

using U128 = unsigned __int128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;
constexpr uint64_t kHibit = uint64_t{1} << 40;  // 2^128 in the 2^88 limb

}  // namespace

Poly1305::Poly1305(const Poly1305Key& key) {
  // Clamp r per RFC 8439 §2.5 and split it into 44/44/42-bit limbs.
  uint64_t t0 = util::LoadLe64(key.data());
  uint64_t t1 = util::LoadLe64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffffULL;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[2] = (t1 >> 24) & 0x00ffffffc0fULL;
  pad_[0] = util::LoadLe64(key.data() + 16);
  pad_[1] = util::LoadLe64(key.data() + 24);
}

void Poly1305::Blocks(const uint8_t* m, size_t nblocks, uint64_t hibit) {
  const uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // Limb products past 2^130 wrap to ×5; the extra ×4 realigns the 2^132
  // and 2^176 positions of r1·h2, r2·h1, r2·h2 with limbs 0 and 1.
  const uint64_t s1 = r1 * (5 << 2);
  const uint64_t s2 = r2 * (5 << 2);
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (size_t i = 0; i < nblocks; ++i, m += kPoly1305BlockSize) {
    uint64_t t0 = util::LoadLe64(m);
    uint64_t t1 = util::LoadLe64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += (t1 >> 24) | hibit;

    // h *= r mod 2^130 - 5.
    U128 d0 = U128{h0} * r0 + U128{h1} * s2 + U128{h2} * s1;
    U128 d1 = U128{h0} * r1 + U128{h1} * r0 + U128{h2} * s2;
    U128 d2 = U128{h0} * r2 + U128{h1} * r1 + U128{h2} * r0;

    uint64_t c = static_cast<uint64_t>(d0 >> 44);
    h0 = static_cast<uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<uint64_t>(d1 >> 44);
    h1 = static_cast<uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<uint64_t>(d2 >> 42);
    h2 = static_cast<uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::Update(util::ByteSpan data) {
  if (finished_) {
    throw std::logic_error("Poly1305: Update after Finish");
  }
  const uint8_t* m = data.data();
  size_t n = data.size();
  if (n == 0) {
    return;
  }
  if (buffered_ > 0) {
    size_t take = std::min(n, kPoly1305BlockSize - buffered_);
    std::memcpy(buffer_ + buffered_, m, take);
    buffered_ += take;
    m += take;
    n -= take;
    if (buffered_ < kPoly1305BlockSize) {
      return;
    }
    Blocks(buffer_, 1, kHibit);
    buffered_ = 0;
  }
  size_t whole = n / kPoly1305BlockSize;
  Blocks(m, whole, kHibit);
  m += whole * kPoly1305BlockSize;
  n -= whole * kPoly1305BlockSize;
  if (n > 0) {
    std::memcpy(buffer_, m, n);
  }
  buffered_ = n;
}

Poly1305Tag Poly1305::Finish() {
  if (finished_) {
    throw std::logic_error("Poly1305: Finish called twice");
  }
  finished_ = true;

  if (buffered_ > 0) {
    // The padding bit goes into the value itself; the block gets no 2^128.
    std::memset(buffer_ + buffered_, 0, kPoly1305BlockSize - buffered_);
    buffer_[buffered_] = 1;
    Blocks(buffer_, 1, 0);
  }

  // Full carry propagation.
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute g = h + 5 - 2^130 and select h or g in constant time.
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  uint64_t g2 = h2 + c - (uint64_t{1} << 42);

  uint64_t mask = (g2 >> 63) - 1;  // all-ones if g >= 0 (i.e. h >= p)
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // h = (h + s) mod 2^128.
  uint64_t s0 = pad_[0], s1 = pad_[1];
  h0 += s0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += (s1 >> 24) + c;
  h2 &= kMask42;

  Poly1305Tag tag;
  util::StoreLe64(tag.data(), h0 | (h1 << 44));
  util::StoreLe64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305Tag Poly1305::Compute(const Poly1305Key& key, util::ByteSpan data) {
  Poly1305 p(key);
  p.Update(data);
  return p.Finish();
}

}  // namespace vuvuzela::crypto
