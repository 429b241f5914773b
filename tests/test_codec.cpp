// Tests for the varint byte codec and delta encoding: roundtrips across the
// value-width spectrum, the no-zero-byte invariant the CPMA leaf format
// relies on, size accounting, and the DeltaStream decode kernel (scalar,
// block/word-at-a-time, and the generic no-bulk-hooks fallback).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "codec/delta.hpp"
#include "codec/delta_stream.hpp"
#include "codec/varint.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

namespace codec = cpma::codec;
using cpma::util::Rng;

class VarintWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(VarintWidths, RoundtripAtBitBoundaries) {
  unsigned bits = GetParam();
  std::vector<uint64_t> probes;
  uint64_t base = (bits == 64) ? ~uint64_t{0} : (uint64_t{1} << bits);
  probes.push_back(base - 1);
  probes.push_back(base == ~uint64_t{0} ? base : base);
  if (base + 1 != 0) probes.push_back(base + 1);
  for (uint64_t v : probes) {
    uint8_t buf[codec::kMaxVarintBytes];
    size_t n = codec::varint_encode(v, buf);
    EXPECT_EQ(n, codec::varint_size(v));
    uint64_t out;
    EXPECT_EQ(codec::varint_decode(buf, &out), n);
    EXPECT_EQ(out, v);
    EXPECT_EQ(codec::varint_skip(buf), n);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, VarintWidths,
                         ::testing::Values(1u, 7u, 8u, 14u, 21u, 28u, 35u,
                                           42u, 49u, 56u, 63u, 64u));

TEST(Varint, SizeSteps) {
  EXPECT_EQ(codec::varint_size(0), 1u);
  EXPECT_EQ(codec::varint_size(127), 1u);
  EXPECT_EQ(codec::varint_size(128), 2u);
  EXPECT_EQ(codec::varint_size(16383), 2u);
  EXPECT_EQ(codec::varint_size(16384), 3u);
  EXPECT_EQ(codec::varint_size(~uint64_t{0}), 10u);
}

TEST(Varint, NonzeroValuesNeverEncodeALeadingZeroByte) {
  // The CPMA leaf format uses 0x00 as the end-of-stream marker; any v >= 1
  // must encode with no 0x00 byte anywhere.
  Rng r(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = (r.next() >> (r.next() % 60)) | 1;
    uint8_t buf[codec::kMaxVarintBytes];
    size_t n = codec::varint_encode(v, buf);
    for (size_t j = 0; j < n; ++j) EXPECT_NE(buf[j], 0) << "v=" << v;
  }
}

TEST(Varint, RandomRoundtrip) {
  Rng r(7);
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = r.next() >> (r.next() % 64);
    uint8_t buf[codec::kMaxVarintBytes];
    size_t n = codec::varint_encode(v, buf);
    uint64_t out;
    EXPECT_EQ(codec::varint_decode(buf, &out), n);
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, SequentialStreamDecode) {
  // Encode a stream of values back to back and decode it.
  Rng r(9);
  std::vector<uint64_t> values(1000);
  for (auto& v : values) v = r.next() >> (r.next() % 60);
  std::vector<uint8_t> buf;
  uint8_t tmp[codec::kMaxVarintBytes];
  for (uint64_t v : values) {
    size_t n = codec::varint_encode(v, tmp);
    buf.insert(buf.end(), tmp, tmp + n);
  }
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t out;
    pos += codec::varint_decode(buf.data() + pos, &out);
    EXPECT_EQ(out, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Delta, EncodeDecodeRoundtrip) {
  Rng r(11);
  std::vector<uint64_t> keys(5000);
  uint64_t cur = 0;
  for (auto& k : keys) {
    cur += 1 + (r.next() % 100000);
    k = cur;
  }
  std::vector<uint8_t> buf;
  codec::delta_encode_append(keys.data() + 1, keys.size() - 1, keys[0], buf);
  EXPECT_EQ(buf.size(),
            codec::delta_encoded_size(keys.data() + 1, keys.size() - 1,
                                      keys[0]));
  std::vector<uint64_t> out{keys[0]};
  codec::delta_decode_append(buf.data(), buf.size(), keys[0], out);
  EXPECT_EQ(out, keys);
}

TEST(Delta, DenseKeysCompressWell) {
  // Consecutive keys have delta 1 => 1 byte each vs 8 uncompressed.
  std::vector<uint64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 + i;
  size_t sz =
      codec::delta_encoded_size(keys.data() + 1, keys.size() - 1, keys[0]);
  EXPECT_EQ(sz, keys.size() - 1);
}

TEST(Delta, EmptyRange) {
  std::vector<uint8_t> buf;
  codec::delta_encode_append(nullptr, 0, 42, buf);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(codec::delta_encoded_size(nullptr, 0, 42), 0u);
}

// ---------------------------------------------------------------------------
// DeltaStream: the leaf layer's streaming decode kernel.
// ---------------------------------------------------------------------------

namespace {

// Sorted strictly-increasing keys whose deltas mix widths: `dense_bias` of
// 0 gives all-small deltas (the word/SIMD fast path), larger values mix in
// multi-byte deltas to force the scalar step mid-stream.
std::vector<uint64_t> make_keys(Rng& r, size_t n, unsigned dense_bias) {
  std::vector<uint64_t> keys(n);
  uint64_t cur = 1 + r.next() % 1000;
  for (auto& k : keys) {
    uint64_t d = 1 + r.next() % 100;
    if (dense_bias != 0 && r.next() % dense_bias == 0) {
      d = 1 + (r.next() % (uint64_t{1} << (10 + r.next() % 30)));
    }
    cur += d;
    k = cur;
  }
  return keys;
}

// Encodes keys[1..] as deltas into a buffer with `tail` zero bytes after the
// stream (tail == 0 models a stream that fills its cap exactly).
std::vector<uint8_t> encode_body(const std::vector<uint64_t>& keys,
                                 size_t tail) {
  std::vector<uint8_t> body;
  codec::delta_encode_append(keys.data() + 1, keys.size() - 1, keys[0], body);
  body.insert(body.end(), tail, 0);
  return body;
}

// Same, but in an arbitrary codec's code format (the typed DeltaStream tests
// must feed each codec its own encoding).
template <typename Codec>
std::vector<uint8_t> encode_body_as(const std::vector<uint64_t>& keys,
                                    size_t tail) {
  std::vector<uint8_t> body;
  uint8_t tmp[Codec::kMaxBytes];
  for (size_t i = 1; i < keys.size(); ++i) {
    size_t n = Codec::encode(keys[i] - keys[i - 1], tmp);
    body.insert(body.end(), tmp, tmp + n);
  }
  body.insert(body.end(), tail, 0);
  return body;
}

}  // namespace

template <typename Codec>
class DeltaStreamTest : public ::testing::Test {};

using StreamCodecs = ::testing::Types<codec::ByteVarintCodec, ScalarOnlyCodec>;
TYPED_TEST_SUITE(DeltaStreamTest, StreamCodecs);

TYPED_TEST(DeltaStreamTest, ScalarNextMatchesKeys) {
  Rng r(21);
  for (unsigned bias : {0u, 4u, 1u}) {
    auto keys = make_keys(r, 500, bias);
    auto body = encode_body_as<TypeParam>(keys, 3);
    codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
    size_t i = 1;
    while (s.next()) {
      ASSERT_LT(i, keys.size());
      EXPECT_EQ(s.value(), keys[i]);
      ++i;
    }
    EXPECT_EQ(i, keys.size());
    EXPECT_FALSE(s.next());  // stays at end
  }
}

TYPED_TEST(DeltaStreamTest, BlockDecodeMatchesScalarAtEveryBlockSize) {
  Rng r(22);
  for (unsigned bias : {0u, 4u}) {
    auto keys = make_keys(r, 700, bias);
    auto body = encode_body_as<TypeParam>(keys, 2);
    for (size_t block : {1, 3, 8, 17, 64, 1000}) {
      codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
      std::vector<uint64_t> out{keys[0]};
      std::vector<uint64_t> buf(block);
      while (size_t k = s.next_block(buf.data(), block)) {
        out.insert(out.end(), buf.begin(), buf.begin() + k);
        EXPECT_EQ(s.value(), out.back());
      }
      EXPECT_EQ(out, keys) << "block=" << block;
    }
  }
}

TYPED_TEST(DeltaStreamTest, StreamFillingCapExactlyTerminatesAtCap) {
  Rng r(23);
  auto keys = make_keys(r, 64, 0);
  auto body =
      encode_body_as<TypeParam>(keys, 0);  // no terminator byte: cap is end
  codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
  uint64_t buf[16];
  std::vector<uint64_t> out{keys[0]};
  while (size_t k = s.next_block(buf, 16)) out.insert(out.end(), buf, buf + k);
  EXPECT_EQ(out, keys);
  EXPECT_TRUE(s.done());
  EXPECT_EQ(s.pos(), body.size());
}

TYPED_TEST(DeltaStreamTest, CountRemainingMatchesAndConsumes) {
  Rng r(24);
  for (unsigned bias : {0u, 3u}) {
    for (size_t n : {2, 9, 100, 513}) {
      auto keys = make_keys(r, n, bias);
      auto body = encode_body_as<TypeParam>(keys, 5);
      codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
      EXPECT_EQ(s.count_remaining(), n - 1);
      EXPECT_TRUE(s.done());
      EXPECT_EQ(s.count_remaining(), 0u);
      // Counting after a partial scalar scan covers mid-stream starts.
      codec::DeltaStream<TypeParam> s2(body.data(), body.size(), keys[0]);
      ASSERT_TRUE(s2.next());
      EXPECT_EQ(s2.count_remaining(), n - 2);
    }
  }
}

TYPED_TEST(DeltaStreamTest, SeekAndDrainMatchScalarWalk) {
  // seek() consumes whole codes starting before the target (sum_run_to when
  // the codec has it); value()/pos() afterwards must agree with a scalar
  // walk stopped at the same boundary.
  Rng r(27);
  for (unsigned bias : {0u, 4u, 1u}) {
    auto keys = make_keys(r, 400, bias);
    auto body = encode_body_as<TypeParam>(keys, 3);
    for (size_t target = 0; target <= body.size(); target += 7) {
      codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
      s.seek(target);
      codec::DeltaStream<TypeParam> ref(body.data(), body.size(), keys[0]);
      while (ref.pos() < target && ref.next()) {
      }
      EXPECT_EQ(s.pos(), ref.pos()) << "target=" << target;
      EXPECT_EQ(s.value(), ref.value()) << "target=" << target;
    }
    codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
    s.drain();
    EXPECT_EQ(s.value(), keys.back());
    EXPECT_TRUE(s.done());
  }
}

TYPED_TEST(DeltaStreamTest, EmptyBodyIsDone) {
  std::vector<uint8_t> body(8, 0);
  codec::DeltaStream<TypeParam> s(body.data(), body.size(), 99);
  EXPECT_TRUE(s.done());
  EXPECT_FALSE(s.next());
  uint64_t buf[4];
  EXPECT_EQ(s.next_block(buf, 4), 0u);
  EXPECT_EQ(s.count_remaining(), 0u);
  EXPECT_EQ(s.value(), 99u);
}

TYPED_TEST(DeltaStreamTest, BlockDecodeMatchesScalarOnMultiByteHeavyStreams) {
  // bias 1 makes almost every delta multi-byte, so ByteVarintCodec's
  // prefer_scalar probe routes next_block through the tight scalar loop;
  // the result must be byte-identical to the scalar next() walk.
  Rng r(29);
  auto keys = make_keys(r, 600, 1);
  auto body = encode_body_as<TypeParam>(keys, 3);
  for (size_t block : {1, 5, 64, 1000}) {
    codec::DeltaStream<TypeParam> s(body.data(), body.size(), keys[0]);
    std::vector<uint64_t> out{keys[0]};
    std::vector<uint64_t> buf(block);
    while (size_t k = s.next_block(buf.data(), block)) {
      out.insert(out.end(), buf.begin(), buf.begin() + k);
      EXPECT_EQ(s.value(), out.back());
    }
    EXPECT_EQ(out, keys) << "block=" << block;
  }
}

TEST(ByteVarintCodec, PreferScalarNeedsThreeContinueBitsInTheProbeWord) {
  // The probe reads the next 8 bytes: three or more continue bits leave at
  // most ~5 codes starting there, too few for the word fast path.
  using BV = codec::ByteVarintCodec;
  const uint8_t two[8] = {0x81, 0x01, 0x82, 0x01, 1, 1, 1, 1};
  const uint8_t three[8] = {0x81, 0x01, 0x82, 0x01, 0x83, 0x01, 1, 1};
  EXPECT_FALSE(BV::prefer_scalar(two, 8));
  EXPECT_TRUE(BV::prefer_scalar(three, 8));
  // A terminator inside the window leaves the short run to decode_block.
  const uint8_t ends[8] = {0x81, 0x01, 0x82, 0x01, 0x83, 0x01, 0, 0};
  EXPECT_FALSE(BV::prefer_scalar(ends, 8));
  // Fewer than 8 readable bytes: decode_block's tail loop, never scalar.
  EXPECT_FALSE(BV::prefer_scalar(three, 7));
}

TEST(DeltaStream, ProbeSwitchesBetweenScalarAndBlockPathsMidStream) {
  // Long alternating stretches of 1-byte and 3-byte deltas: successive
  // next_block calls flip between the word fast path and the scalar
  // fallback, and the hand-offs must not lose or duplicate keys.
  std::vector<uint64_t> keys;
  uint64_t cur = 9;
  keys.push_back(cur);
  for (int run = 0; run < 12; ++run) {
    for (int i = 0; i < 40; ++i) keys.push_back(cur += 1 + i % 100);
    for (int i = 0; i < 40; ++i) keys.push_back(cur += 70000 + i);
  }
  auto body = encode_body(keys, 4);
  for (size_t block : {8, 64}) {
    codec::DeltaStream<> s(body.data(), body.size(), keys[0]);
    std::vector<uint64_t> out{keys[0]};
    std::vector<uint64_t> buf(block);
    while (size_t k = s.next_block(buf.data(), block)) {
      out.insert(out.end(), buf.begin(), buf.begin() + k);
    }
    EXPECT_EQ(out, keys) << "block=" << block;
  }
}

TEST(DeltaStream, WordFastPathCrossesMultiByteBoundaries) {
  // Alternate long runs of 1-byte deltas with multi-byte deltas placed so
  // varints straddle 8-byte probe windows.
  std::vector<uint64_t> keys;
  uint64_t cur = 5;
  keys.push_back(cur);
  for (int run = 0; run < 20; ++run) {
    for (int i = 0; i < 7 + run % 5; ++i) keys.push_back(cur += 1 + i % 90);
    keys.push_back(cur += (uint64_t{1} << (14 + run % 20)));
  }
  auto body = encode_body(keys, 4);
  codec::DeltaStream<> s(body.data(), body.size(), keys[0]);
  std::vector<uint64_t> out{keys[0]};
  uint64_t buf[8];  // exactly the word width, maximizing window reuse
  while (size_t k = s.next_block(buf, 8)) out.insert(out.end(), buf, buf + k);
  EXPECT_EQ(out, keys);
}
