/**
 * @file
 * ISA-layer tests: encode/decode round-trip over every instruction kind
 * (property test with randomized operand fields), immediate edge cases,
 * operand classification, and disassembly.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/rng.h"
#include "isa/isa.h"

using namespace vortex;
using namespace vortex::isa;

namespace {

Instr
randomInstr(InstrKind kind, Xorshift& rng)
{
    Instr in;
    in.kind = kind;
    in.rd = rng.nextBounded(32);
    in.rs1 = rng.nextBounded(32);
    in.rs2 = rng.nextBounded(32);
    in.rs3 = rng.nextBounded(32);
    const InstrInfo& info = instrInfo(kind);
    switch (info.format) {
      case InstrFormat::I:
        in.imm = static_cast<int32_t>(rng.nextBounded(4096)) - 2048;
        break;
      case InstrFormat::S:
        in.imm = static_cast<int32_t>(rng.nextBounded(4096)) - 2048;
        break;
      case InstrFormat::B:
        in.imm = (static_cast<int32_t>(rng.nextBounded(4096)) - 2048) * 2;
        break;
      case InstrFormat::U:
        in.imm = static_cast<int32_t>(rng.next() & 0xFFFFF000u);
        break;
      case InstrFormat::J:
        in.imm =
            (static_cast<int32_t>(rng.nextBounded(1 << 20)) - (1 << 19)) * 2;
        break;
      default:
        in.imm = 0;
        break;
    }
    // Format-specific fixes.
    switch (kind) {
      case InstrKind::SLLI: case InstrKind::SRLI: case InstrKind::SRAI:
        in.imm = static_cast<int32_t>(rng.nextBounded(32));
        break;
      case InstrKind::CSRRW: case InstrKind::CSRRS: case InstrKind::CSRRC:
        in.csr = rng.nextBounded(0x1000);
        in.imm = 0; // register CSR forms carry no immediate
        break;
      case InstrKind::CSRRWI: case InstrKind::CSRRSI: case InstrKind::CSRRCI:
        in.csr = rng.nextBounded(0x1000);
        in.imm = static_cast<int32_t>(rng.nextBounded(32));
        break;
      case InstrKind::FSQRT_S: case InstrKind::FCVT_W_S:
      case InstrKind::FCVT_WU_S: case InstrKind::FMV_X_W:
      case InstrKind::FCLASS_S: case InstrKind::FCVT_S_W:
      case InstrKind::FCVT_S_WU: case InstrKind::FMV_W_X:
      case InstrKind::VX_TMC: case InstrKind::VX_SPLIT:
        in.rs2 = 0;
        break;
      case InstrKind::ECALL: case InstrKind::EBREAK: case InstrKind::FENCE:
      case InstrKind::VX_JOIN:
        in.rd = in.rs1 = in.rs2 = 0;
        break;
      default:
        break;
    }
    if (kind == InstrKind::VX_TMC || kind == InstrKind::VX_SPLIT ||
        kind == InstrKind::VX_WSPAWN || kind == InstrKind::VX_BAR)
        in.rd = 0;
    return in;
}

/** Fields that must survive the round trip for @p kind. */
void
expectRoundTrip(const Instr& a, const Instr& b)
{
    EXPECT_EQ(a.kind, b.kind) << instrInfo(a.kind).mnemonic;
    const InstrInfo& info = instrInfo(a.kind);
    if (a.dst().valid()) {
        EXPECT_EQ(a.rd, b.rd) << info.mnemonic;
    }
    if (a.src1().valid()) {
        EXPECT_EQ(a.rs1, b.rs1) << info.mnemonic;
    }
    if (a.src2().valid()) {
        EXPECT_EQ(a.rs2, b.rs2) << info.mnemonic;
    }
    if (a.src3().valid()) {
        EXPECT_EQ(a.rs3, b.rs3) << info.mnemonic;
    }
    switch (info.format) {
      case InstrFormat::I:
      case InstrFormat::S:
      case InstrFormat::B:
      case InstrFormat::U:
      case InstrFormat::J:
        EXPECT_EQ(a.imm, b.imm) << info.mnemonic;
        break;
      default:
        break;
    }
    EXPECT_EQ(a.csr, b.csr) << info.mnemonic;
}

} // namespace

class IsaRoundTrip : public ::testing::TestWithParam<uint16_t>
{
};

TEST_P(IsaRoundTrip, EncodeDecode)
{
    auto kind = static_cast<InstrKind>(GetParam());
    Xorshift rng(GetParam() * 977 + 1);
    for (int iter = 0; iter < 64; ++iter) {
        Instr in = randomInstr(kind, rng);
        uint32_t word = encode(in);
        Instr out = decode(word);
        expectRoundTrip(in, out);
        // Re-encoding the decoded form must be stable.
        EXPECT_EQ(encode(out), word) << instrInfo(kind).mnemonic;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, IsaRoundTrip,
    ::testing::Range<uint16_t>(1,
                               static_cast<uint16_t>(InstrKind::kCount)),
    [](const ::testing::TestParamInfo<uint16_t>& info) {
        std::string m =
            instrInfo(static_cast<InstrKind>(info.param)).mnemonic;
        for (char& c : m) {
            if (c == '.')
                c = '_';
        }
        return m;
    });

TEST(Isa, ImmediateEdges)
{
    Instr in;
    in.kind = InstrKind::ADDI;
    in.rd = 1;
    in.rs1 = 2;
    in.imm = -2048;
    EXPECT_EQ(decode(encode(in)).imm, -2048);
    in.imm = 2047;
    EXPECT_EQ(decode(encode(in)).imm, 2047);
    in.imm = 2048;
    EXPECT_THROW(encode(in), PanicError);

    in.kind = InstrKind::JAL;
    in.imm = -(1 << 20);
    EXPECT_EQ(decode(encode(in)).imm, -(1 << 20));
    in.imm = (1 << 20) - 2;
    EXPECT_EQ(decode(encode(in)).imm, (1 << 20) - 2);
    in.imm = 3; // misaligned
    EXPECT_THROW(encode(in), PanicError);

    in.kind = InstrKind::BEQ;
    in.imm = -4096;
    EXPECT_EQ(decode(encode(in)).imm, -4096);
    in.imm = 4094;
    EXPECT_EQ(decode(encode(in)).imm, 4094);
}

TEST(Isa, InvalidEncodings)
{
    EXPECT_FALSE(decode(0x00000000).valid());
    EXPECT_FALSE(decode(0xFFFFFFFF).valid());
    // OP with reserved funct7.
    EXPECT_FALSE(decode(0x40001033 | (0x15 << 25)).valid());
}

TEST(Isa, OperandClassification)
{
    Instr lw = decode(encode([] {
        Instr i;
        i.kind = InstrKind::LW;
        i.rd = 5;
        i.rs1 = 6;
        i.imm = 16;
        return i;
    }()));
    EXPECT_EQ(lw.dst().file, RegFile::Int);
    EXPECT_EQ(lw.src1().file, RegFile::Int);
    EXPECT_FALSE(lw.src2().valid());
    EXPECT_TRUE(lw.isLoad());
    EXPECT_FALSE(lw.isStore());
    EXPECT_EQ(lw.fuType(), FuType::LSU);

    Instr fsw;
    fsw.kind = InstrKind::FSW;
    fsw.rs1 = 2;
    fsw.rs2 = 3;
    EXPECT_FALSE(fsw.dst().valid());
    EXPECT_EQ(fsw.src1().file, RegFile::Int);
    EXPECT_EQ(fsw.src2().file, RegFile::Fp);
    EXPECT_TRUE(fsw.isStore());

    Instr fma;
    fma.kind = InstrKind::FMADD_S;
    EXPECT_EQ(fma.dst().file, RegFile::Fp);
    EXPECT_EQ(fma.src3().file, RegFile::Fp);
    EXPECT_EQ(fma.fuType(), FuType::FPU);

    Instr tex;
    tex.kind = InstrKind::VX_TEX;
    EXPECT_EQ(tex.dst().file, RegFile::Int);
    EXPECT_EQ(tex.src1().file, RegFile::Fp);
    EXPECT_EQ(tex.fuType(), FuType::TEX);

    Instr bar;
    bar.kind = InstrKind::VX_BAR;
    EXPECT_FALSE(bar.dst().valid());
    EXPECT_TRUE(bar.isControl());
    EXPECT_EQ(bar.fuType(), FuType::SFU);

    // x0 destination is not a write.
    RegRef x0{RegFile::Int, 0};
    EXPECT_FALSE(x0.isWrite());
    RegRef f0{RegFile::Fp, 0};
    EXPECT_TRUE(f0.isWrite());
}

TEST(Isa, Disassemble)
{
    Instr in;
    in.kind = InstrKind::ADDI;
    in.rd = 10;
    in.rs1 = 2;
    in.imm = -4;
    EXPECT_EQ(disassemble(in), "addi a0, sp, -4");

    in = Instr{};
    in.kind = InstrKind::VX_TEX;
    in.rd = 5;
    in.rs1 = 0;
    in.rs2 = 1;
    in.rs3 = 2;
    EXPECT_EQ(disassemble(in), "vx_tex t0, ft0, ft1, ft2");

    in = Instr{};
    in.kind = InstrKind::FLW;
    in.rd = 10;
    in.rs1 = 8;
    in.imm = 12;
    EXPECT_EQ(disassemble(in), "flw fa0, 12(s0)");
}

TEST(Isa, RegisterNames)
{
    EXPECT_STREQ(intRegName(0), "zero");
    EXPECT_STREQ(intRegName(2), "sp");
    EXPECT_STREQ(intRegName(31), "t6");
    EXPECT_STREQ(fpRegName(0), "ft0");
    EXPECT_STREQ(fpRegName(10), "fa0");
}
