#include "cpu/core.hpp"

#include "trace/context.hpp"

namespace dol
{

RetireInfo
Core::step(const Instr &in, DataPort &port)
{
    RetireInfo info;

    // Dispatch: bounded by front-end width and by the ROB — instruction
    // i cannot enter until instruction (i - robSize) has retired.
    const Cycle rob_free = _retireRing[_robSlot];
    Cycle dispatch = std::max(_nextDispatch, rob_free);
    if (dispatch > _nextDispatch) {
        _nextDispatch = dispatch;
        _laneUsed = 0;
    }
    info.dispatch = dispatch;
    if (++_laneUsed >= _params.width) {
        ++_nextDispatch;
        _laneUsed = 0;
    }

    // Issue and finish, by operation class.
    const Cycle operands =
        std::max(regReady(in.src1), regReady(in.src2));
    Cycle finish = 0;

    switch (in.op) {
      case Op::kAlu:
        finish = std::max(dispatch, operands) + in.latency;
        info.issue = finish - in.latency;
        break;

      case Op::kLoad:
      case Op::kStore: {
        Cycle agen = std::max(dispatch, operands) + _params.agenLatency;
        // LSQ: memory op j waits for (j - lsqSize) to complete.
        agen = std::max(agen, _lsqRing[_lsqSlot]);
        info.issue = agen;
        info.mem = in.isLoad() ? port.demandLoad(in.addr, in.pc, agen)
                               : port.demandStore(in.addr, in.pc, agen);
        // Stores retire once their address and data are known; the
        // cache absorbs the write in the background.
        finish = in.isLoad() ? info.mem.completion : agen + 1;
        _lsqRing[_lsqSlot] = info.mem.completion;
        if (++_lsqSlot == _params.lsqSize)
            _lsqSlot = 0;
        if (in.isLoad())
            ++_stats.loads;
        else
            ++_stats.stores;
        break;
      }

      case Op::kBranch:
      case Op::kCall:
      case Op::kReturn: {
        finish = std::max(dispatch, operands) + in.latency;
        info.issue = finish - in.latency;
        ++_stats.branches;
        if (in.mispredicted) {
            // Front end restarts after the branch resolves.
            ++_stats.mispredicts;
            DOL_TRACE_EVENT(_trace, TraceEventType::kCoreMispredict,
                            finish, in.target, in.pc, 0, 0,
                            in.taken ? 1 : 0);
            _nextDispatch = std::max(
                _nextDispatch, finish + _params.branchMissPenalty);
            _laneUsed = 0;
        }
        if (in.op == Op::kCall)
            _ras.push(in.pc + 4);
        else if (in.op == Op::kReturn)
            _ras.pop();
        break;
      }
    }

    if (in.dst < kNumRegs)
        _regReady[in.dst] = finish;

    // In-order retirement: the retire cursor never moves backwards.
    _retireCursor = std::max(_retireCursor, finish);
    _retireRing[_robSlot] = _retireCursor;
    if (++_robSlot == _params.robSize)
        _robSlot = 0;

    _maxFinish = std::max(_maxFinish, finish);
    info.finish = finish;

    ++_stats.instructions;
    _stats.cycles = _maxFinish;
    return info;
}

} // namespace dol
