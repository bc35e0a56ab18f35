/**
 * @file
 * Composition kernels: a compute-bound filler and a phase multiplexer
 * that interleaves sub-kernels to imitate applications whose behaviour
 * mixes several access patterns (mcf = pointers + streams, gcc =
 * irregular + dense regions, ...).
 */

#ifndef DOL_WORKLOADS_MIXED_KERNELS_HPP
#define DOL_WORKLOADS_MIXED_KERNELS_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

/**
 * Cache-resident compute loop: a small working set with heavy ALU
 * activity (perlbench / gamess / sjeng stand-in; low MPKI).
 */
class AluKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t workingSetBytes = 32 * 1024;
        unsigned aluPerIter = 12;
        unsigned aluLatency = 2;
        std::uint64_t seed = 1;
    };

    AluKernel(MemoryImage &memory, const Params &params);

    void reset() override;

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _base;
    Pc _pcBase;
};

/**
 * Runs its sub-kernels in round-robin phases of a fixed instruction
 * count each. Each generate() forwards the current phase's whole
 * ready run (one nextBatch), not one instruction.
 */
class PhasedKernel : public Kernel
{
  public:
    PhasedKernel(std::string name, MemoryImage &memory,
                 std::uint64_t instrs_per_phase = 20000)
        : Kernel(std::move(name), memory),
          _instrsPerPhase(instrs_per_phase)
    {}

    /**
     * @param instrs phase length; 0 uses the kernel-wide default.
     */
    void
    addPhase(std::unique_ptr<Kernel> kernel, std::uint64_t instrs = 0)
    {
        _phases.push_back(std::move(kernel));
        _phaseLengths.push_back(instrs ? instrs : _instrsPerPhase);
    }

    void reset() override;

  protected:
    bool generate() override;

  private:
    std::uint64_t _instrsPerPhase;
    std::vector<std::unique_ptr<Kernel>> _phases;
    std::vector<std::uint64_t> _phaseLengths;
    std::size_t _current = 0;
    std::uint64_t _phaseCount = 0;
    /** Staging for one forwarded run. Phase iterations are mostly
     *  15-25 instructions; a longer run is forwarded over several
     *  calls. */
    std::array<Instr, 64> _run;
};

} // namespace dol

#endif // DOL_WORKLOADS_MIXED_KERNELS_HPP
