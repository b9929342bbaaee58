// Cache-line bookkeeping shared by the LLC controller (llc.hpp) and the
// pluggable replacement strategies (replacement.hpp).
#ifndef ARCANE_LLC_LINE_HPP_
#define ARCANE_LLC_LINE_HPP_

#include <cstdint>

#include "common/types.hpp"

namespace arcane::llc {

enum class LineState : std::uint8_t {
  kInvalid = 0,
  kClean,
  kDirty,
  kBusy,  // claimed as a kernel operand vector register
};

struct Line {
  LineState state = LineState::kInvalid;
  Addr tag = 0;                 // line base address (valid for Clean/Dirty)
  std::uint64_t owner_uid = 0;  // kernel owning a Busy line
};

}  // namespace arcane::llc

#endif  // ARCANE_LLC_LINE_HPP_
