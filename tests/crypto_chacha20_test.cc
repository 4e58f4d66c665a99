// ChaCha20 against RFC 8439 §2.3.2 / §2.4.2 vectors, and the 4-lane kernel
// against the scalar block-by-block oracle in tests/crypto_reference.h.

#include <gtest/gtest.h>

#include <cstring>

#include "src/crypto/chacha20.h"
#include "src/util/bytes.h"
#include "src/util/random.h"
#include "tests/crypto_reference.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

ChaCha20Key TestKey() {
  ChaCha20Key key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  return key;
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  uint8_t block[kChaCha20BlockSize];
  ChaCha20Block(key, nonce, 1, block);
  EXPECT_EQ(HexEncode(util::ByteSpan(block, sizeof(block))),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::ByteSpan plaintext(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  Bytes ciphertext(plaintext.size());
  ChaCha20Xor(key, nonce, 1, plaintext, ciphertext);
  EXPECT_EQ(HexEncode(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsInvolution) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  util::Xoshiro256Rng rng(77);
  Bytes plaintext = rng.RandomBytes(300);
  Bytes ciphertext(plaintext.size());
  ChaCha20Xor(key, nonce, 5, plaintext, ciphertext);
  Bytes decrypted(ciphertext.size());
  ChaCha20Xor(key, nonce, 5, ciphertext, decrypted);
  EXPECT_EQ(decrypted, plaintext);
}

TEST(ChaCha20, InPlaceXor) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  Bytes data = {1, 2, 3, 4, 5};
  Bytes original = data;
  ChaCha20Xor(key, nonce, 0, data, data);
  EXPECT_NE(data, original);
  ChaCha20Xor(key, nonce, 0, data, data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, SizeMismatchThrows) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  Bytes in(10), out(11);
  EXPECT_THROW(ChaCha20Xor(key, nonce, 0, in, out), std::invalid_argument);
}

TEST(ChaCha20, CounterAdvancesPerBlock) {
  // Encrypting [block0 ‖ block1] at counter 0 equals encrypting block1 alone
  // at counter 1.
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  Bytes zeros(128, 0);
  Bytes both(128);
  ChaCha20Xor(key, nonce, 0, zeros, both);
  Bytes second(64);
  ChaCha20Xor(key, nonce, 1, util::ByteSpan(zeros.data(), 64), second);
  EXPECT_EQ(Bytes(both.begin() + 64, both.end()), second);
}

TEST(ChaCha20, DistinctNoncesDistinctStreams) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce n1{}, n2{};
  n2[0] = 1;
  Bytes zeros(64, 0), s1(64), s2(64);
  ChaCha20Xor(key, n1, 0, zeros, s1);
  ChaCha20Xor(key, n2, 0, zeros, s2);
  EXPECT_NE(s1, s2);
}

// Counters whose 4-block kernel calls wrap the 32-bit block counter.
constexpr uint32_t kOracleCounters[] = {0, 1, 5, 0xFFFFFFFC, 0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF};

TEST(ChaCha20Oracle, KernelMatchesScalarBlocks) {
  util::Xoshiro256Rng rng(11);
  ChaCha20Key key;
  rng.Fill(key);
  ChaCha20Nonce nonce;
  rng.Fill(nonce);
  for (uint32_t counter : kOracleCounters) {
    uint8_t blocks[kChaCha20KernelSize];
    ChaCha20Blocks4(key, nonce, counter, blocks);
    for (uint32_t j = 0; j < kChaCha20KernelBlocks; ++j) {
      uint8_t expected[kChaCha20BlockSize];
      reference::ChaCha20Block(key, nonce, counter + j, expected);
      EXPECT_EQ(0, std::memcmp(blocks + j * kChaCha20BlockSize, expected, sizeof(expected)))
          << "counter=" << counter << " block=" << j;
    }
    uint8_t single[kChaCha20BlockSize];
    ChaCha20Block(key, nonce, counter, single);
    EXPECT_EQ(0, std::memcmp(single, blocks, sizeof(single))) << "counter=" << counter;
  }
}

TEST(ChaCha20Oracle, XorMatchesScalarAtEveryLength) {
  util::Xoshiro256Rng rng(12);
  ChaCha20Key key;
  rng.Fill(key);
  ChaCha20Nonce nonce;
  rng.Fill(nonce);
  Bytes input = rng.RandomBytes(1100);
  for (uint32_t counter : kOracleCounters) {
    for (size_t len = 0; len <= input.size(); ++len) {
      util::ByteSpan in(input.data(), len);
      Bytes expected(len), got(len);
      reference::ChaCha20Xor(key, nonce, counter, in, expected);
      ChaCha20Xor(key, nonce, counter, in, got);
      ASSERT_EQ(got, expected) << "counter=" << counter << " len=" << len;

      Bytes in_place(in.begin(), in.end());
      ChaCha20Xor(key, nonce, counter, in_place, in_place);
      ASSERT_EQ(in_place, expected) << "in place, counter=" << counter << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace vuvuzela::crypto
