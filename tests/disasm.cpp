#include "disasm.hpp"

#include <sstream>

namespace arcane::isa {
namespace {

const char* r(unsigned idx) { return reg_name(static_cast<Reg>(idx & 31u)); }

std::string hex(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

std::string disassemble(const DecodedInst& d, Addr pc) {
  std::ostringstream os;
  os << op_name(d.op);
  switch (op_class(d.op)) {
    case OpClass::kAlu:
      if (d.op == Op::kLui || d.op == Op::kAuipc) {
        os << ' ' << r(d.rd) << ", " << hex(static_cast<std::uint32_t>(d.imm));
      } else if (d.op == Op::kFence) {
        // no operands
      } else if (d.raw != 0 && (d.raw & 0x7Fu) == kOpcOpImm) {
        os << ' ' << r(d.rd) << ", " << r(d.rs1) << ", " << d.imm;
      } else {
        os << ' ' << r(d.rd) << ", " << r(d.rs1) << ", " << r(d.rs2);
      }
      break;
    case OpClass::kJump:
      if (d.op == Op::kJal)
        os << ' ' << r(d.rd) << ", " << hex(pc + static_cast<Addr>(d.imm));
      else
        os << ' ' << r(d.rd) << ", " << d.imm << '(' << r(d.rs1) << ')';
      break;
    case OpClass::kBranch:
      os << ' ' << r(d.rs1) << ", " << r(d.rs2) << ", "
         << hex(pc + static_cast<Addr>(d.imm));
      break;
    case OpClass::kLoad:
      os << ' ' << r(d.rd) << ", " << d.imm << '(' << r(d.rs1) << ')';
      break;
    case OpClass::kStore:
      os << ' ' << r(d.rs2) << ", " << d.imm << '(' << r(d.rs1) << ')';
      break;
    case OpClass::kMulDiv:
      os << ' ' << r(d.rd) << ", " << r(d.rs1) << ", " << r(d.rs2);
      break;
    case OpClass::kCsr:
      os << ' ' << r(d.rd) << ", " << hex(static_cast<std::uint32_t>(d.imm))
         << ", ";
      if (d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci)
        os << d.rs1;
      else
        os << r(d.rs1);
      break;
    case OpClass::kSimd:
      os << ' ' << r(d.rd) << ", " << r(d.rs1) << ", " << r(d.rs2);
      break;
    case OpClass::kHwLoop:
      os << ' ' << d.rd << ", " << r(d.rs1) << ", " << d.imm;
      break;
    case OpClass::kOffload:
      os << " func5=" << static_cast<unsigned>(d.func5) << " esize="
         << static_cast<unsigned>(d.funct3) << ' ' << r(d.rs1) << ", "
         << r(d.rs2) << ", " << r(d.rs3);
      break;
    case OpClass::kSystem:
    case OpClass::kIllegal:
      break;
  }
  if (d.is_compressed()) os << " (c)";
  return os.str();
}

}  // namespace arcane::isa
