// Poly1305 against RFC 8439 §2.5.2 and §A.3 vectors, and donna-64 against the
// donna-32 oracle in tests/crypto_reference.h.

#include <gtest/gtest.h>

#include <cstring>

#include "src/crypto/poly1305.h"
#include "src/util/bytes.h"
#include "src/util/random.h"
#include "tests/crypto_reference.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

Poly1305Key KeyFromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  Poly1305Key key;
  std::memcpy(key.data(), raw.data(), key.size());
  return key;
}

TEST(Poly1305, Rfc8439Vector) {
  Poly1305Key key =
      KeyFromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const char* text = "Cryptographic Forum Research Group";
  Poly1305Tag tag =
      Poly1305::Compute(key, util::ByteSpan(reinterpret_cast<const uint8_t*>(text), 34));
  EXPECT_EQ(HexEncode(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, A3ZeroKeyZeroMessage) {
  Poly1305Key key{};
  Bytes msg(64, 0);
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "00000000000000000000000000000000");
}

TEST(Poly1305, A3Test2) {
  // r = 0, s = 36e5f6b5c5e06070f0efca96227a863e; msg = 64-byte text block.
  Poly1305Key key =
      KeyFromHex("0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e");
  const char* text =
      "Any submission to the IETF intended by the Contributor for publi"
      "cation as all or part of an IETF Internet-Draft or RFC and any s"
      "tatement made within the context of an IETF activity is consider"
      "ed an \"IETF Contribution\". Such statements include oral statemen"
      "ts in IETF sessions, as well as written and electronic communica"
      "tions made at any time or place, which are addressed to";
  util::ByteSpan msg(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "36e5f6b5c5e06070f0efca96227a863e");
}

TEST(Poly1305, A3Test3) {
  // r = 36e5f6b5c5e06070f0efca96227a863e, s = 0; same message.
  Poly1305Key key =
      KeyFromHex("36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000");
  const char* text =
      "Any submission to the IETF intended by the Contributor for publi"
      "cation as all or part of an IETF Internet-Draft or RFC and any s"
      "tatement made within the context of an IETF activity is consider"
      "ed an \"IETF Contribution\". Such statements include oral statemen"
      "ts in IETF sessions, as well as written and electronic communica"
      "tions made at any time or place, which are addressed to";
  util::ByteSpan msg(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "f3477e7cd95417af89a6b8794c310cf0");
}

TEST(Poly1305, A3Test5CarryEdge) {
  // Tests a carry in the final addition: r = 2..0, msg = ff..ff.
  Poly1305Key key =
      KeyFromHex("0200000000000000000000000000000000000000000000000000000000000000");
  Bytes msg(16, 0xff);
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "03000000000000000000000000000000");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  Poly1305Key key =
      KeyFromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  util::Xoshiro256Rng rng(11);
  Bytes data = rng.RandomBytes(259);
  for (size_t chunk : {1u, 5u, 15u, 16u, 17u, 100u}) {
    Poly1305 p(key);
    for (size_t off = 0; off < data.size(); off += chunk) {
      p.Update(util::ByteSpan(data.data() + off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(p.Finish(), Poly1305::Compute(key, data)) << "chunk=" << chunk;
  }
}

TEST(Poly1305, EmptyMessage) {
  Poly1305Key key =
      KeyFromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // For an empty message the tag is just s (the pad).
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, {})), "0103808afb0db2fd4abff6af4149f51b");
}

TEST(Poly1305, FinishTwiceThrows) {
  Poly1305 p(Poly1305Key{});
  p.Finish();
  EXPECT_THROW(p.Finish(), std::logic_error);
}

TEST(Poly1305Oracle, MatchesDonna32OnRandomInputs) {
  util::Xoshiro256Rng rng(2024);
  for (int trial = 0; trial < 10000; ++trial) {
    Poly1305Key key;
    rng.Fill(key);
    Bytes msg = rng.RandomBytes(rng.UniformUint64(601));
    Poly1305Tag expected = reference::Poly1305Donna32::Compute(key, msg);
    ASSERT_EQ(Poly1305::Compute(key, msg), expected) << "trial=" << trial;
    if (trial % 10 == 0) {
      // Same message through uneven Update chunks.
      Poly1305 p(key);
      for (size_t off = 0; off < msg.size();) {
        size_t take = std::min<size_t>(1 + rng.UniformUint64(40), msg.size() - off);
        p.Update(util::ByteSpan(msg.data() + off, take));
        off += take;
      }
      ASSERT_EQ(p.Finish(), expected) << "chunked, trial=" << trial;
    }
  }
}

TEST(Poly1305Oracle, MatchesDonna32OnAllOnesAndMaxR) {
  Poly1305Key max_r;
  max_r.fill(0xff);  // clamps to the largest r; s = 2^128 - 1
  util::Xoshiro256Rng rng(7);
  Poly1305Key random_key;
  rng.Fill(random_key);
  for (size_t len = 0; len <= 160; ++len) {
    Bytes ones(len, 0xff);
    Bytes random = rng.RandomBytes(len);
    for (const Poly1305Key& key : {max_r, random_key}) {
      EXPECT_EQ(Poly1305::Compute(key, ones), reference::Poly1305Donna32::Compute(key, ones))
          << "all ones, len=" << len;
    }
    EXPECT_EQ(Poly1305::Compute(max_r, random), reference::Poly1305Donna32::Compute(max_r, random))
        << "max r, len=" << len;
  }
}

TEST(Poly1305Oracle, AccumulatorAroundModulus) {
  // With r = 1 and s = 0, h is the plain sum of the blocks with their 2^128
  // bits: three blocks give 3·2^128 + m = p + delta for m = 2^128 - 5 + delta,
  // so the tag is h mod p, i.e. delta, or p + delta mod 2^128 below p.
  Poly1305Key key{};
  key[0] = 1;
  for (int delta = -3; delta <= 4; ++delta) {
    Bytes msg(48, 0);
    std::memset(msg.data(), 0xff, 16);
    msg[0] = static_cast<uint8_t>(0xfb + delta);
    Poly1305Tag expected{};
    if (delta >= 0) {
      expected[0] = static_cast<uint8_t>(delta);
    } else {
      expected.fill(0xff);
      expected[0] = static_cast<uint8_t>(0xfb + delta);
    }
    EXPECT_EQ(Poly1305::Compute(key, msg), expected) << "delta=" << delta;
    EXPECT_EQ(reference::Poly1305Donna32::Compute(key, msg), expected) << "delta=" << delta;
  }
}

}  // namespace
}  // namespace vuvuzela::crypto
