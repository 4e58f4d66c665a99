#include "src/crypto/drbg.h"

#include <cstring>
#include <stdexcept>

namespace vuvuzela::crypto {

ChaChaRng::ChaChaRng(const ChaCha20Key& seed) : key_(seed) {}

ChaChaRng ChaChaRng::FromSystem() {
  ChaCha20Key seed;
  util::GlobalRng().Fill(seed);
  return ChaChaRng(seed);
}

ChaChaRng ChaChaRng::AtBlock(const ChaCha20Key& seed, uint32_t block) {
  if (block % kChaCha20KernelBlocks != 0) {
    throw std::invalid_argument("ChaChaRng::AtBlock: block must be a multiple of 4");
  }
  ChaChaRng rng(seed);
  rng.counter_ = block;
  return rng;
}

void ChaChaRng::Refill() {
  ChaCha20Blocks4(key_, nonce_, counter_, buffer_);
  counter_ += kChaCha20KernelBlocks;
  available_ = kChaCha20KernelSize;
  if (counter_ == 0) {
    // 2^32 blocks (256 GiB) exhausted: ratchet the key forward so the stream
    // never repeats. The new key is the first 32 bytes of the last block,
    // which are never emitted; the three blocks before it shift up to close
    // the gap, so the unread bytes stay contiguous at the end of buffer_.
    uint8_t* last = buffer_ + kChaCha20KernelSize - kChaCha20BlockSize;
    std::memcpy(key_.data(), last, key_.size());
    std::memmove(buffer_ + key_.size(), buffer_, last - buffer_);
    available_ = kChaCha20KernelSize - key_.size();
  }
}

void ChaChaRng::Fill(util::MutableByteSpan out) {
  size_t off = 0;
  while (off < out.size()) {
    if (available_ == 0) {
      Refill();
    }
    size_t take = std::min(out.size() - off, available_);
    std::memcpy(out.data() + off, buffer_ + (kChaCha20KernelSize - available_), take);
    available_ -= take;
    off += take;
  }
}

uint64_t ChaChaRng::NextUint64() {
  uint8_t buf[8];
  Fill(buf);
  return util::LoadLe64(buf);
}

}  // namespace vuvuzela::crypto
