// Disassembler — human-readable rendering of decoded instructions, the
// reference isa_encode_decode_test checks encodings against.
#ifndef ARCANE_TESTS_DISASM_HPP_
#define ARCANE_TESTS_DISASM_HPP_

#include <string>

#include "common/types.hpp"
#include "isa/rv32.hpp"

namespace arcane::isa {

/// Render `inst` as assembly text. `pc` resolves branch/jump targets.
std::string disassemble(const DecodedInst& inst, Addr pc = 0);

}  // namespace arcane::isa

#endif  // ARCANE_TESTS_DISASM_HPP_
