#include "reclaim/ebr.hpp"

namespace rcua::reclaim {

// Explicit instantiations of the widths used across the project: the
// default 64-bit epoch and the narrow widths the Lemma 2 overflow tests
// drive through wrap-around, in both reader-bank layouts.
template class BasicEbr<std::uint64_t, OwnedReaders>;
template class BasicEbr<std::uint32_t, OwnedReaders>;
template class BasicEbr<std::uint16_t, OwnedReaders>;
template class BasicEbr<std::uint8_t, OwnedReaders>;
template class BasicEbr<std::uint64_t, LegacyReaders>;
template class BasicEbr<std::uint8_t, LegacyReaders>;

}  // namespace rcua::reclaim
