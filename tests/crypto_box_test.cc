// Box / SealedBox construction tests: round trips, key separation, and the
// 48-byte sealed-box overhead the dialing protocol's 80-byte invitations
// depend on (§8.1).

#include <gtest/gtest.h>

#include "src/crypto/box.h"
#include "src/crypto/drbg.h"
#include "src/util/bytes.h"
#include "src/util/random.h"
#include "tests/crypto_reference.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;

class BoxTest : public ::testing::Test {
 protected:
  util::Xoshiro256Rng rng_{101};
  X25519KeyPair alice_ = X25519KeyPair::Generate(rng_);
  X25519KeyPair bob_ = X25519KeyPair::Generate(rng_);
  X25519KeyPair eve_ = X25519KeyPair::Generate(rng_);
  Bytes context_ = {'t', 'e', 's', 't'};
};

TEST_F(BoxTest, RoundTrip) {
  Bytes msg = {1, 2, 3, 4, 5};
  AeadNonce nonce = NonceFromUint64(1);
  Bytes sealed = BoxSeal(alice_.secret_key, bob_.public_key, nonce, context_, msg);
  EXPECT_EQ(sealed.size(), msg.size() + kBoxOverhead);
  auto opened = BoxOpen(bob_.secret_key, alice_.public_key, nonce, context_, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST_F(BoxTest, SymmetricDerivation) {
  // Both directions derive the same key: Bob can also seal to Alice and she
  // opens with Bob's public key.
  Bytes msg = {9, 9, 9};
  AeadNonce nonce = NonceFromUint64(2);
  Bytes sealed = BoxSeal(bob_.secret_key, alice_.public_key, nonce, context_, msg);
  auto opened = BoxOpen(alice_.secret_key, bob_.public_key, nonce, context_, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST_F(BoxTest, WrongRecipientFails) {
  Bytes msg = {1, 2, 3};
  AeadNonce nonce = NonceFromUint64(3);
  Bytes sealed = BoxSeal(alice_.secret_key, bob_.public_key, nonce, context_, msg);
  EXPECT_FALSE(BoxOpen(eve_.secret_key, alice_.public_key, nonce, context_, sealed).has_value());
}

TEST_F(BoxTest, WrongSenderKeyFails) {
  Bytes msg = {1, 2, 3};
  AeadNonce nonce = NonceFromUint64(4);
  Bytes sealed = BoxSeal(alice_.secret_key, bob_.public_key, nonce, context_, msg);
  EXPECT_FALSE(BoxOpen(bob_.secret_key, eve_.public_key, nonce, context_, sealed).has_value());
}

TEST_F(BoxTest, WrongContextFails) {
  Bytes msg = {1, 2, 3};
  AeadNonce nonce = NonceFromUint64(5);
  Bytes sealed = BoxSeal(alice_.secret_key, bob_.public_key, nonce, context_, msg);
  Bytes other_context = {'o', 't', 'h', 'e', 'r'};
  EXPECT_FALSE(
      BoxOpen(bob_.secret_key, alice_.public_key, nonce, other_context, sealed).has_value());
}

TEST_F(BoxTest, WrongNonceFails) {
  Bytes msg = {1, 2, 3};
  Bytes sealed = BoxSeal(alice_.secret_key, bob_.public_key, NonceFromUint64(6), context_, msg);
  EXPECT_FALSE(
      BoxOpen(bob_.secret_key, alice_.public_key, NonceFromUint64(7), context_, sealed)
          .has_value());
}

TEST_F(BoxTest, SealedBoxRoundTrip) {
  Bytes msg(32, 0x42);
  Bytes sealed = SealedBoxSeal(bob_.public_key, context_, msg, rng_);
  EXPECT_EQ(sealed.size(), msg.size() + kSealedBoxOverhead);
  auto opened = SealedBoxOpen(bob_, context_, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST_F(BoxTest, SealedBoxInvitationSizeMatchesPaper) {
  // §8.1: invitations are 80 bytes long including 48 bytes of overhead.
  Bytes sender_pk(kX25519KeySize, 0x01);  // payload = a 32-byte public key
  Bytes sealed = SealedBoxSeal(bob_.public_key, context_, sender_pk, rng_);
  EXPECT_EQ(sealed.size(), 80u);
}

TEST_F(BoxTest, SealedBoxWrongRecipientFails) {
  Bytes msg(32, 0x42);
  Bytes sealed = SealedBoxSeal(bob_.public_key, context_, msg, rng_);
  EXPECT_FALSE(SealedBoxOpen(eve_, context_, sealed).has_value());
}

TEST_F(BoxTest, SealedBoxIsNondeterministic) {
  // Fresh ephemeral keys per seal: same message, different ciphertexts. This
  // is what makes invitations unlinkable across rounds.
  Bytes msg(32, 0x42);
  Bytes s1 = SealedBoxSeal(bob_.public_key, context_, msg, rng_);
  Bytes s2 = SealedBoxSeal(bob_.public_key, context_, msg, rng_);
  EXPECT_NE(s1, s2);
}

TEST_F(BoxTest, SealedBoxRejectsTruncated) {
  EXPECT_FALSE(SealedBoxOpen(bob_, context_, Bytes(kSealedBoxOverhead - 1)).has_value());
  EXPECT_FALSE(SealedBoxOpen(bob_, context_, Bytes{}).has_value());
}

TEST_F(BoxTest, SealedBoxTamperRejected) {
  Bytes msg(32, 0x42);
  Bytes sealed = SealedBoxSeal(bob_.public_key, context_, msg, rng_);
  for (size_t i : {size_t{0}, size_t{31}, size_t{32}, sealed.size() - 1}) {
    Bytes tampered = sealed;
    tampered[i] ^= 1;
    EXPECT_FALSE(SealedBoxOpen(bob_, context_, tampered).has_value()) << "byte " << i;
  }
}

TEST(ChaChaRng, DeterministicForSeed) {
  ChaCha20Key seed{};
  seed[0] = 7;
  ChaChaRng a(seed), b(seed);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  EXPECT_EQ(a.RandomBytes(100), b.RandomBytes(100));
}

TEST(ChaChaRng, DifferentSeedsDiverge) {
  ChaCha20Key s1{}, s2{};
  s2[0] = 1;
  ChaChaRng a(s1), b(s2);
  EXPECT_NE(a.RandomBytes(32), b.RandomBytes(32));
}

TEST(ChaChaRng, OutputLooksUniform) {
  ChaChaRng rng = ChaChaRng::FromSystem();
  util::Bytes buf = rng.RandomBytes(4096);
  size_t zeros = 0;
  for (uint8_t x : buf) {
    zeros += (x == 0);
  }
  EXPECT_LT(zeros, 100);  // expected ~16
}

TEST(ChaChaRng, UniformBoundWorks) {
  ChaCha20Key seed{};
  ChaChaRng rng(seed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
}

// Reads `total` bytes from both generators in uneven chunks and compares.
void ExpectSameStream(ChaChaRng& rng, reference::ChaChaRngStream& oracle, size_t total) {
  util::Xoshiro256Rng chunks(5);
  for (size_t off = 0; off < total;) {
    size_t take = std::min<size_t>(1 + chunks.UniformUint64(300), total - off);
    Bytes got(take), expected(take);
    rng.Fill(got);
    oracle.Fill(expected);
    ASSERT_EQ(got, expected) << "offset=" << off;
    off += take;
  }
}

TEST(ChaChaRng, StreamMatchesScalarOracle) {
  ChaCha20Key seed{};
  seed[3] = 9;
  ChaChaRng rng(seed);
  reference::ChaChaRngStream oracle(seed, 0);
  ExpectSameStream(rng, oracle, 20000);
}

TEST(ChaChaRng, KeyRatchetMatchesScalarOracle) {
  // Starts 16 blocks before the 2^32-block wrap and reads well past it.
  ChaCha20Key seed{};
  seed[0] = 42;
  ChaChaRng rng = ChaChaRng::AtBlock(seed, 0xFFFFFFF0);
  reference::ChaChaRngStream oracle(seed, 0xFFFFFFF0);
  ExpectSameStream(rng, oracle, 16 * kChaCha20BlockSize + 5000);
}

TEST(ChaChaRng, AtBlockSkipsWholeBlocks) {
  ChaCha20Key seed{};
  seed[1] = 3;
  ChaChaRng from_start(seed);
  from_start.RandomBytes(8 * kChaCha20BlockSize);
  ChaChaRng at_block = ChaChaRng::AtBlock(seed, 8);
  EXPECT_EQ(at_block.RandomBytes(700), from_start.RandomBytes(700));
  EXPECT_THROW(ChaChaRng::AtBlock(seed, 6), std::invalid_argument);
}

}  // namespace
}  // namespace vuvuzela::crypto
