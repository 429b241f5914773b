// A test codec with none of DeltaStream's optional bulk hooks (no
// decode_block, count_run, prefer_scalar or sum_run_to), so every stream
// and leaf operation over it runs the generic scalar fallbacks: the path an
// alternative codec plugged into CompressedLeaf<Codec> starts on. It shares
// the byte-varint wire format, so results compare directly against the
// reference codec. ScalarCPMA is the engine over it: the
// "swap the codec" instantiation that pma/cpma.hpp documents, so the
// engine-level suites run their scenarios through the scalar fallbacks too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "codec/varint.hpp"
#include "pma/leaf_compressed.hpp"
#include "pma/pma.hpp"

struct ScalarOnlyCodec {
  static constexpr const char* name = "scalar-only";
  static constexpr size_t kMaxBytes = cpma::codec::kMaxVarintBytes;
  static constexpr size_t size(uint64_t v) {
    return cpma::codec::varint_size(v);
  }
  static size_t encode(uint64_t v, uint8_t* dst) {
    return cpma::codec::varint_encode(v, dst);
  }
  static size_t decode(const uint8_t* src, uint64_t* out) {
    return cpma::codec::varint_decode(src, out);
  }
  static size_t skip(const uint8_t* src) {
    return cpma::codec::varint_skip(src);
  }
};

using ScalarCPMA =
    cpma::pma::PackedMemoryArray<cpma::pma::CompressedLeaf<ScalarOnlyCodec>>;
