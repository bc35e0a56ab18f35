#include "workloads/mixed_kernels.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dol
{

AluKernel::AluKernel(MemoryImage &memory, const Params &params)
    : Kernel("alu", memory), _params(params), _rng(params.seed),
      _base((((params.seed % 64) + 193) << 32)),
      _pcBase(0x490000 + (params.seed % 97) * 0x1000)
{}

void
AluKernel::reset()
{
    clearQueue();
    _rng = Rng(_params.seed);
}

bool
AluKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    // One hot load (cache-resident working set) and lots of compute.
    const Addr addr =
        _base + lineAddr(_rng.below(_params.workingSetBytes));
    push(makeLoad(pc, addr, 0, 10, 1));
    pc += 4;
    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        push(makeAlu(pc, static_cast<RegId>(4 + a % 4),
                     static_cast<RegId>(4 + (a + 1) % 4), 10,
                     static_cast<std::uint8_t>(_params.aluLatency)));
        pc += 4;
    }
    push(makeAlu(pc, 1, 1));
    pc += 4;
    push(makeBranch(pc, loop_start, true, _rng.chance(0.003)));
    return true;
}

void
PhasedKernel::reset()
{
    clearQueue();
    for (auto &phase : _phases)
        phase->reset();
    _current = 0;
    _phaseCount = 0;
}

bool
PhasedKernel::generate()
{
    if (_phases.empty())
        panic("PhasedKernel without phases");

    // Skip exhausted phases (rare: most kernels are infinite).
    for (std::size_t tries = 0; tries <= _phases.size(); ++tries) {
        // Forward the phase's ready run, up to the instructions left
        // in the phase. nextBatch generates only when the phase's own
        // queue is empty, so generation still never runs ahead of
        // execution. A zero-length phase forwards one instruction.
        const std::uint64_t left = std::max<std::uint64_t>(
            _phaseLengths[_current] - _phaseCount, 1);
        const std::size_t got = _phases[_current]->nextBatch(
            _run.data(), std::min<std::uint64_t>(left, _run.size()));
        if (got > 0) {
            for (std::size_t i = 0; i < got; ++i)
                push(_run[i]);
            _phaseCount += got;
            if (_phaseCount >= _phaseLengths[_current]) {
                _phaseCount = 0;
                _current = (_current + 1) % _phases.size();
            }
            return true;
        }
        _current = (_current + 1) % _phases.size();
        _phaseCount = 0;
    }
    return false;
}

} // namespace dol
