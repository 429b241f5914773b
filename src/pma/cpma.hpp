// Public umbrella header for the PMA / CPMA library.
//
//   #include "pma/cpma.hpp"
//   cpma::PMA  pma;   // uncompressed Packed Memory Array
//   cpma::CPMA cpma;  // Compressed Packed Memory Array (delta + byte codes)
//
// Both types share one engine (see pma/pma.hpp) and expose the API documented
// in the paper's artifact appendix.
#pragma once

#include "durable/durable.hpp"
#include "pma/leaf_compressed.hpp"
#include "pma/leaf_uncompressed.hpp"
#include "pma/pma.hpp"
#include "pma/sharded.hpp"
#include "serve/serving.hpp"

namespace cpma {

using PMA = pma::PackedMemoryArray<pma::UncompressedLeaf>;
// Default codec (byte varints); swap the codec by instantiating
// pma::PackedMemoryArray<pma::CompressedLeaf<YourCodec>> directly.
using CPMA = pma::PackedMemoryArray<pma::CompressedLeaf<>>;

// Keyspace-sharded compositions: S independent engines behind the same set
// API (see pma/sharded.hpp for the router/rebalancer design).
using SPMA = pma::ShardedPMA<PMA>;
using SCPMA = pma::ShardedPMA<CPMA>;

// Concurrent serving layer: epoch-pinned read snapshots over a sharded
// store, flat-combining ingest front end (see serve/serving.hpp).
using ServingPMA = serve::ServingPMA<PMA>;
using ServingCPMA = serve::ServingPMA<CPMA>;

// Durable serving: WAL-before-apply + checkpoints + crash recovery on top
// of the serving layer (see durable/durable.hpp).
using DurablePMA = durable::DurablePMA<PMA>;
using DurableCPMA = durable::DurablePMA<CPMA>;

}  // namespace cpma
