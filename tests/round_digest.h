// SHA-256 over a length-prefixed little-endian serialization of round
// outputs and pass stats, for golden-digest tests: any changed, added,
// dropped or reordered byte changes the hex.

#ifndef VUVUZELA_TESTS_ROUND_DIGEST_H_
#define VUVUZELA_TESTS_ROUND_DIGEST_H_

#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/mixnet/mix_server.h"
#include "src/util/bytes.h"

namespace vuvuzela::testutil {

class Digest {
 public:
  void Add(uint64_t value) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    sha_.Update(le);
  }
  void Add(util::ByteSpan bytes) {
    Add(bytes.size());
    sha_.Update(bytes);
  }
  void Add(const std::vector<util::Bytes>& items) {
    Add(items.size());
    for (const auto& item : items) {
      Add(util::ByteSpan(item));
    }
  }
  void Add(const mixnet::ServerRoundStats& stats) {
    Add(stats.requests_in);
    Add(stats.requests_dropped);
    Add(stats.noise_requests_added);
    Add(stats.bytes_in);
    Add(stats.bytes_out);
    Add(stats.dh_ops);
  }
  std::string Hex() { return util::HexEncode(sha_.Finish()); }

 private:
  crypto::Sha256 sha_;
};

}  // namespace vuvuzela::testutil

#endif  // VUVUZELA_TESTS_ROUND_DIGEST_H_
