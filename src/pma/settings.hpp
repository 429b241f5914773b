// Density-bound settings shared by the PMA and CPMA.
//
// Both leaf policies report occupancy in BYTES (the CPMA counts filled bytes,
// the PMA counts 8 bytes per element), so one set of density bounds covers
// both — exactly the generalization Section 5 of the paper makes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cpma::pma {

// Free bytes every leaf must retain after any rebalance so that a single
// point insert can always be placed before its rebalance runs. The worst
// case is a compressed-leaf insert that replaces one delta with two
// (<= 2*10-1 extra bytes) or displaces the head (8 + 10 bytes).
constexpr size_t kLeafSlack = 24;

struct PmaSettings {
  // Array growth multiplier when the root's upper density bound is violated
  // (Appendix C of the paper sweeps 1.1..2.0; 1.2 is the paper's choice).
  double growth_factor = 1.2;

  // Upper density bounds. Leaves get a dedicated bound with extra headroom
  // over internal nodes: after any redistribution at height h >= 1, every
  // leaf in the region sits at <= upper_internal of its capacity, so each
  // leaf absorbs (upper_leaf - upper_internal) * leaf_bytes of inserts
  // before it can trigger another walk. Without this step the per-level
  // gap is a couple of keys and nearly every touched leaf re-violates on
  // every batch, which makes the counting phase the dominant cost.
  // Internal bounds DECREASE linearly from upper_internal (height 1) to
  // upper_root (the root), the classic PMA ramp.
  double upper_leaf = 0.92;
  double upper_internal = 0.80;
  double upper_root = 0.70;

  // Lower density bounds for deletes, INCREASING with height; leaves again
  // get extra slack below the internal ramp.
  double lower_leaf = 0.04;
  double lower_internal = 0.12;
  double lower_root = 0.20;

  double upper_at(uint64_t height, uint64_t tree_height) const {
    if (tree_height == 0) return upper_root;  // a single leaf IS the root
    if (height == 0) return upper_leaf;
    if (tree_height == 1) return upper_root;
    double t = static_cast<double>(height - 1) /
               static_cast<double>(tree_height - 1);
    return upper_internal + (upper_root - upper_internal) * t;
  }

  double lower_at(uint64_t height, uint64_t tree_height) const {
    if (tree_height == 0) return lower_root;  // a single leaf IS the root
    if (height == 0) return lower_leaf;
    if (tree_height == 1) return lower_root;
    double t = static_cast<double>(height - 1) /
               static_cast<double>(tree_height - 1);
    return lower_internal + (lower_root - lower_internal) * t;
  }
};

}  // namespace cpma::pma
