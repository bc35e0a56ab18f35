/**
 * @file
 * The dynamic instruction record that workload generators emit and the
 * timing core consumes. This is the "trace format" of the simulator.
 *
 * The record carries everything the paper's mechanisms need to observe:
 * program counters and branch structure (T2's loop detection), logical
 * source/destination registers (P1's decoder taint circuit), effective
 * addresses, and the value a load returns (P1's pointer chasing).
 */

#ifndef DOL_CPU_INSTR_HPP
#define DOL_CPU_INSTR_HPP

#include <cstdint>

#include "common/types.hpp"

namespace dol
{

/** Logical register identifier; the ISA has 64 integer registers. */
using RegId = std::uint8_t;
constexpr unsigned kNumRegs = 64;
constexpr RegId kNoReg = 0xff;

/** Dynamic operation class. */
enum class Op : std::uint8_t
{
    kAlu,    ///< register-to-register arithmetic
    kLoad,   ///< memory read
    kStore,  ///< memory write
    kBranch, ///< conditional or unconditional branch
    kCall,   ///< function call (pushes the RAS)
    kReturn, ///< function return (pops the RAS)
};

/**
 * One retired dynamic instruction.
 *
 * The four 8-byte fields come first and the eight 1-byte fields pack
 * after them, so a record is 40 bytes with no interior padding. Every
 * instruction is written into a kernel queue and copied out again, so
 * its size is paid per simulated instruction. DOLINS01 files are
 * written field by field (TraceRecord::pack) and do not depend on
 * this layout.
 */
struct Instr
{
    Pc pc = 0;
    /** Effective byte address (loads and stores). */
    Addr addr = 0;
    /** Value returned by a load / written by a store. */
    std::uint64_t value = 0;
    /** Branch / call target; meaningful when op is a control op. */
    Pc target = 0;

    Op op = Op::kAlu;
    /** Access size in bytes (loads and stores). */
    std::uint8_t size = 8;
    /** Branch direction (branches only). */
    bool taken = false;
    /** Set by the generator when the front end would mispredict. */
    bool mispredicted = false;

    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;

    /** Execution latency in cycles for non-memory operations. */
    std::uint8_t latency = 1;

    bool isLoad() const { return op == Op::kLoad; }
    bool isStore() const { return op == Op::kStore; }
    bool isMem() const { return isLoad() || isStore(); }

    bool
    isControl() const
    {
        return op == Op::kBranch || op == Op::kCall || op == Op::kReturn;
    }

    /** A taken branch to a lower PC: the raw material of loops. */
    bool
    isBackwardBranch() const
    {
        return op == Op::kBranch && taken && target < pc;
    }
};

static_assert(sizeof(Instr) == 40, "Instr packs to 40 bytes");

/** Convenience constructors used heavily by generators and tests. */
inline Instr
makeAlu(Pc pc, RegId dst = kNoReg, RegId s1 = kNoReg, RegId s2 = kNoReg,
        std::uint8_t latency = 1)
{
    Instr in;
    in.pc = pc;
    in.op = Op::kAlu;
    in.dst = dst;
    in.src1 = s1;
    in.src2 = s2;
    in.latency = latency;
    return in;
}

inline Instr
makeLoad(Pc pc, Addr addr, std::uint64_t value = 0, RegId dst = kNoReg,
         RegId base = kNoReg)
{
    Instr in;
    in.pc = pc;
    in.op = Op::kLoad;
    in.addr = addr;
    in.value = value;
    in.dst = dst;
    in.src1 = base;
    return in;
}

inline Instr
makeStore(Pc pc, Addr addr, std::uint64_t value = 0, RegId data = kNoReg,
          RegId base = kNoReg)
{
    Instr in;
    in.pc = pc;
    in.op = Op::kStore;
    in.addr = addr;
    in.value = value;
    in.src1 = base;
    in.src2 = data;
    return in;
}

inline Instr
makeBranch(Pc pc, Pc target, bool taken, bool mispredicted = false)
{
    Instr in;
    in.pc = pc;
    in.op = Op::kBranch;
    in.target = target;
    in.taken = taken;
    in.mispredicted = mispredicted;
    return in;
}

inline Instr
makeCall(Pc pc, Pc target)
{
    Instr in;
    in.pc = pc;
    in.op = Op::kCall;
    in.target = target;
    in.taken = true;
    return in;
}

inline Instr
makeReturn(Pc pc, Pc target)
{
    Instr in;
    in.pc = pc;
    in.op = Op::kReturn;
    in.target = target;
    in.taken = true;
    return in;
}

} // namespace dol

#endif // DOL_CPU_INSTR_HPP
