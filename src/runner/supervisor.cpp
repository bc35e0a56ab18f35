#include "runner/supervisor.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/checkpoint.hpp"
#include "runner/fault.hpp"
#include "runner/framed_file.hpp"

namespace dol::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Journal size in bytes (0 when absent): the cheap heartbeat. */
std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** Whole verified journal records; a torn tail does not count. */
std::uint64_t
journalRecords(const std::string &path)
{
    FramedReader reader;
    std::uint64_t records = 0;
    if (reader.open(path, kCheckpointMagic)) {
        FramedReader::Record record;
        while (reader.next(record))
            ++records;
    }
    return records;
}

pid_t
spawnChild(const std::string &exe, std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t supervisor = getpid();
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Own process group: a terminal ^C reaches only the supervisor,
    // which forwards it exactly once (a second SIGINT would force the
    // child down without draining). Death signal: a killed supervisor
    // must not leave a second writer on the journal.
    setpgid(0, 0);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != supervisor)
        _exit(127);
    execv(exe.c_str(), argv.data());
    _exit(127);
}

std::string
describe(int status)
{
    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "exited " + std::to_string(WEXITSTATUS(status));
}

} // namespace

int
superviseSweep(const SupervisorOptions &options, std::string *error)
{
    const auto stop_requested = [&] {
        return options.stopFlag &&
               options.stopFlag->load(std::memory_order_relaxed);
    };
    const auto stop_signal = [] {
        const int signo = lastStopSignal();
        return signo ? signo : SIGINT;
    };

    unsigned idle_restarts = 0;
    for (unsigned generation = 0;; ++generation) {
        std::vector<std::string> args = options.args;
        if (generation == 0)
            args.insert(args.end(), options.firstArgs.begin(),
                        options.firstArgs.end());
        const std::uint64_t records_before =
            journalRecords(options.journalPath);
        const pid_t pid = spawnChild(options.exe, std::move(args));
        if (pid < 0) {
            if (error)
                *error = "supervise: cannot fork the sweep process";
            return 1;
        }

        int status = 0;
        bool forwarded = false;
        std::uint64_t size = fileBytes(options.journalPath);
        Clock::time_point grew_at = Clock::now();
        for (;;) {
            const pid_t reaped = waitpid(pid, &status, WNOHANG);
            if (reaped == pid)
                break;
            if (reaped < 0 && errno != EINTR) {
                if (error)
                    *error = "supervise: lost the sweep process";
                return 1;
            }
            if (!forwarded && stop_requested()) {
                kill(pid, stop_signal());
                forwarded = true;
            }
            const std::uint64_t now_size = fileBytes(options.journalPath);
            if (now_size != size) {
                size = now_size;
                grew_at = Clock::now();
            } else if (!forwarded &&
                       Clock::now() - grew_at >=
                           std::chrono::milliseconds(options.stallMs)) {
                if (options.verbose)
                    std::fprintf(stderr,
                                 "supervise: journal stalled for %llu "
                                 "ms; killing pid %d\n",
                                 static_cast<unsigned long long>(
                                     options.stallMs),
                                 static_cast<int>(pid));
                kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }

        // Done (0), done with quarantined cells (3), a setup error
        // (1), or a drained interrupt: the child's status stands.
        if (WIFEXITED(status) &&
            (forwarded || WEXITSTATUS(status) != 137))
            return WEXITSTATUS(status);
        if (forwarded || stop_requested())
            return 128 + (WIFSIGNALED(status) ? WTERMSIG(status)
                                              : stop_signal());

        const bool progressed =
            journalRecords(options.journalPath) > records_before;
        if (progressed)
            idle_restarts = 0;
        else if (generation > 0)
            ++idle_restarts; // the first child is not a restart
        if (idle_restarts >= kMaxIdleRestarts) {
            if (error)
                *error = "supervise: giving up after " +
                         std::to_string(kMaxIdleRestarts) +
                         " consecutive restarts that journaled "
                         "nothing (last child " + describe(status) +
                         "); the journal at " + options.journalPath +
                         " keeps all completed cells";
            return 1;
        }
        if (options.verbose)
            std::fprintf(stderr,
                         "supervise: sweep process %s before "
                         "finishing; restarting (generation %u)\n",
                         describe(status).c_str(), generation + 1);
    }
}

} // namespace dol::runner
