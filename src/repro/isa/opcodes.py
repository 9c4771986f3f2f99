"""RISC-V opcode, funct and CSR constants for the supported subset.

Field values follow the RISC-V unprivileged/privileged specs.  Only the
constants actually consumed by the decoder, encoder and firmware model
are defined; this is not an exhaustive transcription of the spec.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Major opcodes (bits [6:0] of a 32-bit instruction).
# --------------------------------------------------------------------------
OP_LOAD = 0b0000011
OP_MISC_MEM = 0b0001111
OP_IMM = 0b0010011
OP_AUIPC = 0b0010111
OP_IMM_32 = 0b0011011
OP_STORE = 0b0100011
OP_REG = 0b0110011
OP_LUI = 0b0110111
OP_REG_32 = 0b0111011
OP_BRANCH = 0b1100011
OP_JALR = 0b1100111
OP_JAL = 0b1101111
OP_SYSTEM = 0b1110011

# --------------------------------------------------------------------------
# funct3 values.
# --------------------------------------------------------------------------
# BRANCH
F3_BEQ = 0b000
F3_BNE = 0b001
F3_BLT = 0b100
F3_BGE = 0b101
F3_BLTU = 0b110
F3_BGEU = 0b111
# LOAD
F3_LB = 0b000
F3_LH = 0b001
F3_LW = 0b010
F3_LD = 0b011
F3_LBU = 0b100
F3_LHU = 0b101
F3_LWU = 0b110
# STORE
F3_SB = 0b000
F3_SH = 0b001
F3_SW = 0b010
F3_SD = 0b011
# OP / OP-IMM
F3_ADD_SUB = 0b000
F3_SLL = 0b001
F3_SLT = 0b010
F3_SLTU = 0b011
F3_XOR = 0b100
F3_SRL_SRA = 0b101
F3_OR = 0b110
F3_AND = 0b111
# M extension
F3_MUL = 0b000
F3_MULH = 0b001
F3_MULHSU = 0b010
F3_MULHU = 0b011
F3_DIV = 0b100
F3_DIVU = 0b101
F3_REM = 0b110
F3_REMU = 0b111
# SYSTEM
F3_PRIV = 0b000
F3_CSRRW = 0b001
F3_CSRRS = 0b010
F3_CSRRC = 0b011
F3_CSRRWI = 0b101
F3_CSRRSI = 0b110
F3_CSRRCI = 0b111

# --------------------------------------------------------------------------
# funct7 values.
# --------------------------------------------------------------------------
F7_BASE = 0b0000000
F7_SUB_SRA = 0b0100000
F7_MULDIV = 0b0000001

# --------------------------------------------------------------------------
# SYSTEM instruction immediates (the full imm12 field).
# --------------------------------------------------------------------------
IMM12_ECALL = 0b000000000000
IMM12_EBREAK = 0b000000000001
IMM12_MRET = 0b001100000010
IMM12_WFI = 0b000100000101

# --------------------------------------------------------------------------
# CSR addresses (machine mode subset used by the OpenTitan firmware).
# --------------------------------------------------------------------------
CSR_MSTATUS = 0x300
CSR_MISA = 0x301
CSR_MIE = 0x304
CSR_MTVEC = 0x305
CSR_MSCRATCH = 0x340
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_MIP = 0x344
CSR_MCYCLE = 0xB00
CSR_MINSTRET = 0xB02
CSR_MHARTID = 0xF14

CSR_NAMES = {
    CSR_MSTATUS: "mstatus",
    CSR_MISA: "misa",
    CSR_MIE: "mie",
    CSR_MTVEC: "mtvec",
    CSR_MSCRATCH: "mscratch",
    CSR_MEPC: "mepc",
    CSR_MCAUSE: "mcause",
    CSR_MTVAL: "mtval",
    CSR_MIP: "mip",
    CSR_MCYCLE: "mcycle",
    CSR_MINSTRET: "minstret",
    CSR_MHARTID: "mhartid",
}
CSR_BY_NAME = {name: addr for addr, name in CSR_NAMES.items()}

# mstatus bits.
MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7
MSTATUS_MPP_SHIFT = 11
MSTATUS_MPP_MASK = 0b11 << MSTATUS_MPP_SHIFT

# mie / mip bits.
MIE_MSIE = 1 << 3
MIE_MTIE = 1 << 7
MIE_MEIE = 1 << 11

# mcause codes (interrupt bit set separately at XLEN-1).
CAUSE_MISALIGNED_FETCH = 0
CAUSE_FETCH_ACCESS = 1
CAUSE_ILLEGAL_INSTRUCTION = 2
CAUSE_BREAKPOINT = 3
CAUSE_MISALIGNED_LOAD = 4
CAUSE_LOAD_ACCESS = 5
CAUSE_MISALIGNED_STORE = 6
CAUSE_STORE_ACCESS = 7
CAUSE_ECALL_M = 11
CAUSE_MACHINE_EXTERNAL_IRQ = 11  # interrupt-space code 11
