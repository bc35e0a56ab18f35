/**
 * @file
 * Journal supervisor: keeps one checkpointed sweep process alive until
 * its sweep finishes (`dolsim --supervise`).
 *
 * The supervisor fork+execs the sweep as a child process and watches
 * the child's DOLCKPT1 journal. Every completed cell is an fsync'd
 * journal record, so journal growth is the child's heartbeat:
 *
 *  - a child that dies before finishing (killed by a signal, or the
 *    abort fault's exit status 137) is re-exec'd; the new generation
 *    resumes from the journal;
 *  - a child whose journal has not grown for stallMs is SIGKILLed and
 *    re-exec'd the same way;
 *  - exit 0 (done) and 3 (done, cells quarantined) end supervision
 *    with that status; any other exit (1 = setup error) is returned
 *    without a retry;
 *  - after kMaxIdleRestarts consecutive restarts that added no journal
 *    record, the supervisor gives up with exit status 1;
 *  - SIGINT/SIGTERM raise the stop flag; the supervisor forwards the
 *    signal to the child once, waits for it to drain, and returns the
 *    child's interrupted status. Re-running the same command resumes.
 *
 * Parallelism stays inside the child (its `--jobs N` threads), and
 * there is exactly one journal, so a supervised document is
 * byte-identical to an unsupervised one by construction.
 *
 * The child runs in its own process group (a terminal ^C reaches only
 * the supervisor, which forwards it once) and is SIGKILLed by the
 * kernel if the supervisor dies, so a killed supervisor never leaves a
 * second writer on the journal.
 */

#ifndef DOL_RUNNER_SUPERVISOR_HPP
#define DOL_RUNNER_SUPERVISOR_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dol::runner
{

/** Consecutive restarts without a new journal record before the
 *  supervisor gives up (a cell that kills every child would otherwise
 *  restart forever). */
constexpr unsigned kMaxIdleRestarts = 8;

struct SupervisorOptions
{
    /** Executable of every generation. */
    std::string exe = "/proc/self/exe";
    /** argv[0..] of every generation; must make the child resume
     *  from journalPath. */
    std::vector<std::string> args;
    /** Appended to the first generation's args only, so a restarted
     *  child does not re-trip an injected fault. */
    std::vector<std::string> firstArgs;
    /** The child's checkpoint journal. */
    std::string journalPath;
    /** Kill a child whose journal has not grown for this long. */
    std::uint64_t stallMs = 30000;
    /** Narrate restarts on stderr. */
    bool verbose = true;
    /** Raised by the stop handlers; forwarded to the child. */
    std::atomic<bool> *stopFlag = nullptr;
};

/**
 * Run generations of the child until it finishes. @return the exit
 * status to report: the child's 0/3/interrupted status, the child's
 * own non-retried status, or 1 after giving up (with @p error set).
 */
int superviseSweep(const SupervisorOptions &options,
                   std::string *error);

} // namespace dol::runner

#endif // DOL_RUNNER_SUPERVISOR_HPP
