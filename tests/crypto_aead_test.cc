// ChaCha20-Poly1305 AEAD against RFC 8439 §2.8.2 and §A.5 vectors, plus
// tamper-rejection properties and an oracle AEAD built from the scalar parts
// in tests/crypto_reference.h.

#include <gtest/gtest.h>

#include <cstring>

#include "src/crypto/aead.h"
#include "src/util/bytes.h"
#include "src/util/random.h"
#include "tests/crypto_reference.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

AeadKey KeyFromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  AeadKey key;
  std::memcpy(key.data(), raw.data(), key.size());
  return key;
}

AeadNonce NonceFromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  AeadNonce nonce;
  std::memcpy(nonce.data(), raw.data(), nonce.size());
  return nonce;
}

TEST(Aead, Rfc8439SealVector) {
  AeadKey key = KeyFromHex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  AeadNonce nonce = NonceFromHex("070000004041424344454647");
  Bytes aad = HexDecode("50515253c0c1c2c3c4c5c6c7");
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::ByteSpan plaintext(reinterpret_cast<const uint8_t*>(text), std::strlen(text));

  Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
  EXPECT_EQ(HexEncode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(util::ByteSpan(*opened).size(), plaintext.size());
  EXPECT_TRUE(util::ConstantTimeEqual(*opened, plaintext));
}

TEST(Aead, RfcA5DecryptionVector) {
  AeadKey key = KeyFromHex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  AeadNonce nonce = NonceFromHex("000000000102030405060708");
  Bytes aad = HexDecode("f33388860000000000004e91");
  Bytes ciphertext_and_tag = HexDecode(
      "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2"
      "4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf"
      "332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855"
      "9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4"
      "b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e"
      "af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a"
      "0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10"
      "49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29"
      "a6ad5cb4022b02709b"
      "eead9d67890cbb22392336fea1851f38");
  auto opened = AeadOpen(key, nonce, aad, ciphertext_and_tag);
  ASSERT_TRUE(opened.has_value());
  std::string plaintext(opened->begin(), opened->end());
  EXPECT_EQ(plaintext.size(), 265u);
  EXPECT_TRUE(plaintext.starts_with("Internet-Drafts are draft documents"));
  EXPECT_NE(plaintext.find("work in progress"), std::string::npos);
}

TEST(Aead, RejectsTamperedCiphertext) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, {}, HexDecode("00112233"));
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(AeadOpen(key, nonce, {}, tampered).has_value()) << "byte " << i;
  }
}

TEST(Aead, RejectsWrongAad) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, HexDecode("aa"), HexDecode("00112233"));
  EXPECT_FALSE(AeadOpen(key, nonce, HexDecode("ab"), sealed).has_value());
  EXPECT_FALSE(AeadOpen(key, nonce, {}, sealed).has_value());
  EXPECT_TRUE(AeadOpen(key, nonce, HexDecode("aa"), sealed).has_value());
}

TEST(Aead, RejectsWrongNonce) {
  AeadKey key{};
  Bytes sealed = AeadSeal(key, NonceFromUint64(7), {}, HexDecode("00112233"));
  EXPECT_FALSE(AeadOpen(key, NonceFromUint64(8), {}, sealed).has_value());
  EXPECT_FALSE(AeadOpen(key, NonceFromUint64(7, 1), {}, sealed).has_value());
  EXPECT_TRUE(AeadOpen(key, NonceFromUint64(7), {}, sealed).has_value());
}

TEST(Aead, RejectsTruncatedInput) {
  AeadKey key{};
  AeadNonce nonce{};
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes(15)).has_value());
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes{}).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrips) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, {}, {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  auto opened = AeadOpen(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

class AeadRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AeadRoundTripTest, SealOpenRoundTrip) {
  util::Xoshiro256Rng rng(GetParam() + 1);
  AeadKey key;
  rng.Fill(key);
  AeadNonce nonce;
  rng.Fill(nonce);
  Bytes plaintext = rng.RandomBytes(GetParam());
  Bytes aad = rng.RandomBytes(GetParam() % 32);

  Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadRoundTripTest,
                         ::testing::Values(1, 15, 16, 17, 63, 64, 65, 240, 256, 1000, 4096));

TEST(Aead, NonceFromUint64Layout) {
  AeadNonce n = NonceFromUint64(0x0102030405060708ULL, 0xa0b0c0d0);
  EXPECT_EQ(util::LoadLe32(n.data()), 0xa0b0c0d0u);
  EXPECT_EQ(util::LoadLe64(n.data() + 4), 0x0102030405060708ULL);
}

TEST(AeadOracle, IntoFormsMatchScalarAtEveryLength) {
  util::Xoshiro256Rng rng(31);
  AeadKey key;
  rng.Fill(key);
  Bytes input = rng.RandomBytes(1100);
  for (size_t len = 0; len <= input.size(); ++len) {
    AeadNonce nonce = NonceFromUint64(len, 3);
    util::ByteSpan plaintext(input.data(), len);
    Bytes aad = rng.RandomBytes(len % 37);
    Bytes expected = reference::AeadSeal(key, nonce, aad, plaintext);

    Bytes sealed(len + kAeadTagSize);
    AeadSealInto(key, nonce, aad, plaintext, sealed);
    ASSERT_EQ(sealed, expected) << "len=" << len;
    ASSERT_EQ(AeadSeal(key, nonce, aad, plaintext), expected) << "len=" << len;

    Bytes opened(len);
    ASSERT_TRUE(AeadOpenInto(key, nonce, aad, sealed, opened)) << "len=" << len;
    ASSERT_TRUE(util::ConstantTimeEqual(opened, plaintext)) << "len=" << len;
    auto oracle_opened = reference::AeadOpen(key, nonce, aad, sealed);
    ASSERT_TRUE(oracle_opened.has_value()) << "len=" << len;
    ASSERT_EQ(*oracle_opened, opened) << "len=" << len;
  }
}

TEST(AeadOracle, FlippedTagBitRejectedAndOutputUntouched) {
  util::Xoshiro256Rng rng(32);
  AeadKey key;
  rng.Fill(key);
  Bytes input = rng.RandomBytes(1100);
  for (size_t len = 0; len <= input.size(); ++len) {
    AeadNonce nonce = NonceFromUint64(len);
    Bytes sealed = AeadSeal(key, nonce, {}, util::ByteSpan(input.data(), len));
    size_t bit = len % (8 * kAeadTagSize);
    sealed[len + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));

    Bytes out(len, 0xa5);
    EXPECT_FALSE(AeadOpenInto(key, nonce, {}, sealed, out)) << "len=" << len;
    EXPECT_EQ(out, Bytes(len, 0xa5)) << "len=" << len;
    EXPECT_FALSE(reference::AeadOpen(key, nonce, {}, sealed).has_value()) << "len=" << len;
  }
}

TEST(AeadOracle, IntoRejectsWrongOutputSize) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes plaintext(10);
  Bytes short_out(plaintext.size() + kAeadTagSize - 1);
  EXPECT_THROW(AeadSealInto(key, nonce, {}, plaintext, short_out), std::invalid_argument);
  Bytes sealed = AeadSeal(key, nonce, {}, plaintext);
  Bytes long_out(plaintext.size() + 1);
  EXPECT_THROW(AeadOpenInto(key, nonce, {}, sealed, long_out), std::invalid_argument);
}

}  // namespace
}  // namespace vuvuzela::crypto
