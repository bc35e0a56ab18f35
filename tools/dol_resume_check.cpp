/**
 * @file
 * Kill-and-resume end-to-end check for the runner's fault tolerance.
 *
 * Drives the real dolsim binary through the failure modes the
 * checkpoint journal must survive, and asserts the resumed sweep's
 * dol-sweep-v1 document is byte-identical (deterministic portion) to
 * uninterrupted references:
 *
 *   1. clean reference sweeps (no checkpoint) at --jobs 1 and 4,
 *      which must agree with each other
 *   2. hard crash: --fault-plan abort@2 (std::_Exit, no flushing —
 *      SIGKILL semantics) at --jobs 1 and --jobs 4, then --resume
 *   3. SIGTERM mid-sweep: a hang@2 fault parks cell 2, the driver
 *      waits until the journal holds 2 cells, signals, expects the
 *      graceful-drain exit code (143), then resumes
 *   4. SIGKILL mid-sweep: same setup, no chance to drain, then
 *      resumes across the torn process
 *   5. --supervise with abort@2 at --jobs 1 and 4: the supervisor
 *      re-execs the dead sweep, which resumes and finishes (exit 0)
 *   6. --supervise with hang@2 and no cell timeout: the parked child
 *      is SIGKILLed after a short --stall-timeout and re-exec'd
 *      without the fault
 *   7. the supervisor itself SIGKILLed mid-run: its child must die
 *      with it, and re-running the same command finishes the sweep
 *   8. SIGTERM to the supervisor: forwarded once, the child drains,
 *      the supervisor exits 143, and a plain --resume finishes
 *
 * "Byte-identical deterministic portion" means every byte up to the
 * documented-nondeterministic "timing" section — schema, config,
 * results (all rows, all digits) — compared with memcmp, not a parsed
 * approximation.
 *
 * Usage: dol_resume_check <path-to-dolsim> <scratch-dir>
 * Exit 0 when every scenario passes. Run by the tier-1 resume_smoke
 * test and the CI kill-and-resume smoke job.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/checkpoint.hpp"

namespace
{

int g_failures = 0;

void
fail(const std::string &message)
{
    std::fprintf(stderr, "FAIL: %s\n", message.c_str());
    ++g_failures;
}

struct RunResult
{
    bool ran = false;    ///< fork/exec worked
    bool exited = false; ///< normal exit (vs signal)
    int code = -1;       ///< exit code when exited
    int signal = 0;      ///< terminating signal otherwise
};

pid_t
spawn(const std::string &exe, const std::vector<std::string> &args,
      const std::string &log_path)
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    const int fd =
        open(log_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
    }
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    execv(exe.c_str(), argv.data());
    _exit(127);
}

RunResult
await(pid_t pid)
{
    RunResult result;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return result;
    result.ran = true;
    if (WIFEXITED(status)) {
        result.exited = true;
        result.code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        result.signal = WTERMSIG(status);
    }
    return result;
}

RunResult
run(const std::string &exe, const std::vector<std::string> &args,
    const std::string &log_path)
{
    return await(spawn(exe, args, log_path));
}

/** Poll until @p path journals at least @p want completed jobs. */
bool
waitForJournaledJobs(const std::string &path, std::size_t want,
                     int timeout_ms)
{
    for (int waited = 0; waited < timeout_ms; waited += 20) {
        const auto loaded = dol::runner::CheckpointJournal::load(path);
        if (loaded.fileExists && loaded.valid &&
            loaded.jobs.size() >= want)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    out.clear();
    char buffer[1 << 14];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        out.append(buffer, got);
    std::fclose(file);
    return true;
}

/**
 * The document's deterministic portion: every byte before the
 * "timing" key (which is always last and documented as wall-clock
 * dependent). Empty when the marker is missing.
 */
std::string
deterministicPrefix(const std::string &document)
{
    const std::size_t pos = document.find("\"timing\"");
    return pos == std::string::npos ? std::string()
                                    : document.substr(0, pos);
}

/** The timing section's "resumed_jobs" count, or -1 when absent. */
long
resumedJobs(const std::string &document)
{
    const std::size_t key = document.find("\"resumed_jobs\"");
    if (key == std::string::npos)
        return -1;
    const std::size_t colon = document.find(':', key);
    return colon == std::string::npos
               ? -1
               : std::strtol(document.c_str() + colon + 1, nullptr, 10);
}

/** SIGKILL and reap every remaining child of this process. */
void
killChildren()
{
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc", ec)) {
        std::ifstream stat(entry.path() / "stat");
        std::string line;
        std::getline(stat, line);
        // "pid (comm) state ppid ...": comm may hold spaces or ')'.
        const std::size_t close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 1));
        char state = 0;
        pid_t ppid = 0;
        if (rest >> state >> ppid && ppid == getpid())
            kill(std::atoi(entry.path().filename().c_str()), SIGKILL);
    }
    while (waitpid(-1, nullptr, 0) > 0) {
    }
}

/**
 * Reap every orphan re-parented to this process (a subreaper), for up
 * to @p timeout_ms. False when one is still alive at the deadline; it
 * is then killed so no hung sweep outlives the check.
 */
bool
reapOrphans(int timeout_ms)
{
    for (int waited = 0; waited < timeout_ms; waited += 10) {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, WNOHANG);
        if (pid < 0)
            return true; // no children left
        if (pid == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    killChildren();
    return false;
}

bool
exists(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0;
}

/** Shared sweep grid (6 cells, small budget) + scenario flags. */
std::vector<std::string>
gridArgs(const std::string &json_path,
         const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {
        "--workload",   "libquantum.syn,mcf.syn,omnetpp.syn",
        "--prefetcher", "TPC,SPP",
        "--instrs",     "20000",
        "--quiet",      "--json",
        json_path};
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

/** Compare @p json_path against the references; @return the
 *  document's resumed_jobs count (-1 when unreadable). */
long
compareAgainstBaseline(const std::string &scenario,
                       const std::string &baseline_prefix,
                       const std::string &json_path)
{
    std::string document;
    if (!readFile(json_path, document)) {
        fail(scenario + ": resumed run wrote no " + json_path);
        return -1;
    }
    const std::string prefix = deterministicPrefix(document);
    if (prefix.empty()) {
        fail(scenario + ": no \"timing\" marker in " + json_path);
        return -1;
    }
    if (prefix != baseline_prefix) {
        fail(scenario + ": resumed document differs from the "
                        "uninterrupted references (deterministic "
                        "portion)");
    }
    return resumedJobs(document);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(
            stderr,
            "usage: dol_resume_check <path-to-dolsim> <scratch-dir>\n");
        return 2;
    }
    const std::string dolsim = argv[1];
    const std::string dir = argv[2];
    mkdir(dir.c_str(), 0755);
    const std::string log = dir + "/dolsim.log";
    // A supervisor killed in scenario 7 orphans its child; as the
    // subreaper this process inherits and reaps it.
    prctl(PR_SET_CHILD_SUBREAPER, 1);

    // 1. Uninterrupted references at one and at four workers.
    std::string baseline_prefix;
    for (const std::string jobs : {"1", "4"}) {
        const std::string ref_json = dir + "/ref" + jobs + ".json";
        const RunResult result =
            run(dolsim, gridArgs(ref_json, {"--jobs", jobs}), log);
        std::string document;
        if (!result.exited || result.code != 0 ||
            !readFile(ref_json, document)) {
            fail("reference sweep at --jobs " + jobs +
                 " did not exit 0 with a document");
            return 1;
        }
        const std::string prefix = deterministicPrefix(document);
        if (prefix.empty()) {
            fail("reference document has no \"timing\" marker");
            return 1;
        }
        if (baseline_prefix.empty())
            baseline_prefix = prefix;
        else if (prefix != baseline_prefix)
            fail("--jobs 1 and --jobs 4 references differ");
    }

    // 2. Hard crash (abort fault == SIGKILL semantics) + resume, at
    //    one and at four workers.
    for (const std::string jobs : {"1", "4"}) {
        const std::string tag = "abort-resume[jobs=" + jobs + "]";
        const std::string ckpt = dir + "/abort" + jobs + ".ckpt";
        const std::string json = dir + "/abort" + jobs + ".json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        RunResult result =
            run(dolsim,
                gridArgs(json, {"--jobs", jobs, "--checkpoint", ckpt,
                                 "--fault-plan", "abort@2"}),
                log);
        if (!result.exited || result.code != 137)
            fail(tag + ": crashing run should exit 137");
        if (exists(json))
            fail(tag + ": crashed run must not write JSON");
        const auto loaded = dol::runner::CheckpointJournal::load(ckpt);
        if (!loaded.fileExists || !loaded.valid)
            fail(tag + ": no readable journal after the crash");
        // Serial execution reaches the faulting cell only after cells
        // 0 and 1 journal; with 4 workers the abort races the first
        // completions, so an empty (but valid) journal is legal there.
        if (jobs == "1" && loaded.jobs.size() != 2)
            fail(tag + ": expected exactly 2 journaled cells");
        result = run(dolsim,
                     gridArgs(json, {"--jobs", jobs, "--checkpoint",
                                      ckpt, "--resume"}),
                     log);
        if (!result.exited || result.code != 0)
            fail(tag + ": resumed run should exit 0");
        compareAgainstBaseline(tag, baseline_prefix, json);
        if (exists(ckpt))
            fail(tag + ": journal should be removed after a clean "
                       "completed resume");
    }

    // 3. SIGTERM mid-sweep (graceful drain) + resume, and
    // 4. SIGKILL mid-sweep (no drain) + resume.
    for (const int signo : {SIGTERM, SIGKILL}) {
        const std::string name =
            signo == SIGTERM ? "sigterm" : "sigkill";
        const std::string tag = name + "-resume";
        const std::string ckpt = dir + "/" + name + ".ckpt";
        const std::string json = dir + "/" + name + ".json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        // hang@2 parks the third cell forever; by the time the journal
        // holds two cells the process is reliably inside the hang (or
        // about to enter it), so the kill point is deterministic.
        const pid_t pid =
            spawn(dolsim,
                  gridArgs(json, {"--jobs", "1", "--checkpoint",
                                   ckpt, "--fault-plan", "hang@2"}),
                  log);
        if (!waitForJournaledJobs(ckpt, 2, 30000)) {
            fail(tag + ": journal never reached 2 cells");
            kill(pid, SIGKILL);
            await(pid);
            continue;
        }
        kill(pid, signo);
        const RunResult result = await(pid);
        if (signo == SIGTERM) {
            // Graceful drain: the handler raises the stop flag, the
            // hang unwinds, dolsim exits 128+15 on its own.
            if (!result.exited || result.code != 128 + SIGTERM)
                fail(tag + ": drained run should exit 143");
        } else {
            if (result.exited || result.signal != SIGKILL)
                fail(tag + ": run should die by SIGKILL");
        }
        if (exists(json))
            fail(tag + ": killed run must not write JSON");
        const RunResult resumed =
            run(dolsim,
                gridArgs(json, {"--jobs", "1", "--checkpoint", ckpt,
                                 "--resume"}),
                log);
        if (!resumed.exited || resumed.code != 0)
            fail(tag + ": resumed run should exit 0");
        compareAgainstBaseline(tag, baseline_prefix, json);
    }

    // 5. Supervised crash: the supervisor re-execs the aborted sweep
    //    (without the fault) and the resumed child finishes.
    for (const std::string jobs : {"1", "4"}) {
        const std::string tag = "supervise-abort[jobs=" + jobs + "]";
        const std::string ckpt = dir + "/sup-abort" + jobs + ".ckpt";
        const std::string json = dir + "/sup-abort" + jobs + ".json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        const RunResult result =
            run(dolsim,
                gridArgs(json, {"--jobs", jobs, "--checkpoint", ckpt,
                                 "--fault-plan", "abort@2",
                                 "--supervise"}),
                log);
        if (!result.exited || result.code != 0)
            fail(tag + ": supervised run should exit 0");
        const long resumed =
            compareAgainstBaseline(tag, baseline_prefix, json);
        // Serial execution journals cells 0 and 1 before the abort.
        if (jobs == "1" && resumed != 2)
            fail(tag + ": the restarted child should resume 2 cells");
        if (exists(ckpt))
            fail(tag + ": journal should be removed after a clean "
                       "supervised run");
    }

    // 6. Supervised stall: hang@2 parks the child with no cell
    //    timeout; only the stall limit can get the sweep moving.
    {
        const std::string tag = "supervise-stall";
        const std::string ckpt = dir + "/sup-stall.ckpt";
        const std::string json = dir + "/sup-stall.json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        const RunResult result =
            run(dolsim,
                gridArgs(json, {"--jobs", "1", "--checkpoint", ckpt,
                                 "--fault-plan", "hang@2",
                                 "--stall-timeout", "500",
                                 "--supervise"}),
                log);
        if (!result.exited || result.code != 0)
            fail(tag + ": supervised run should exit 0");
        if (compareAgainstBaseline(tag, baseline_prefix, json) != 2)
            fail(tag + ": the re-exec'd child should resume 2 cells");
    }

    // 7. The supervisor itself SIGKILLed mid-run, then the same
    //    command re-run. Its first child hangs at cell 2 again and is
    //    stall-killed; the next one resumes and finishes.
    {
        const std::string tag = "supervisor-sigkill";
        const std::string ckpt = dir + "/sup-kill.ckpt";
        const std::string json = dir + "/sup-kill.json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        const std::vector<std::string> args =
            gridArgs(json, {"--jobs", "1", "--checkpoint", ckpt,
                            "--fault-plan", "hang@2",
                            "--stall-timeout", "1500", "--supervise"});
        const pid_t pid = spawn(dolsim, args, log);
        if (!waitForJournaledJobs(ckpt, 2, 30000))
            fail(tag + ": journal never reached 2 cells");
        kill(pid, SIGKILL);
        const RunResult killed = await(pid);
        if (killed.exited || killed.signal != SIGKILL)
            fail(tag + ": supervisor should die by SIGKILL");
        if (!reapOrphans(10000))
            fail(tag + ": the sweep process outlived its supervisor");
        if (exists(json))
            fail(tag + ": killed run must not write JSON");
        const RunResult rerun = run(dolsim, args, log);
        if (!rerun.exited || rerun.code != 0)
            fail(tag + ": re-run should exit 0");
        if (compareAgainstBaseline(tag, baseline_prefix, json) != 2)
            fail(tag + ": the re-run should resume 2 cells");
    }

    // 8. SIGTERM to the supervisor is forwarded once; the child drains
    //    and the supervisor reports the interrupted status.
    {
        const std::string tag = "supervisor-sigterm";
        const std::string ckpt = dir + "/sup-term.ckpt";
        const std::string json = dir + "/sup-term.json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        const pid_t pid =
            spawn(dolsim,
                  gridArgs(json, {"--jobs", "1", "--checkpoint", ckpt,
                                   "--fault-plan", "hang@2",
                                   "--supervise"}),
                  log);
        if (!waitForJournaledJobs(ckpt, 2, 30000))
            fail(tag + ": journal never reached 2 cells");
        kill(pid, SIGTERM);
        const RunResult result = await(pid);
        if (!result.exited || result.code != 128 + SIGTERM)
            fail(tag + ": supervisor should exit 143");
        if (!reapOrphans(10000))
            fail(tag + ": the sweep process outlived its supervisor");
        const RunResult resumed =
            run(dolsim,
                gridArgs(json, {"--jobs", "1", "--checkpoint", ckpt,
                                 "--resume"}),
                log);
        if (!resumed.exited || resumed.code != 0)
            fail(tag + ": resumed run should exit 0");
        compareAgainstBaseline(tag, baseline_prefix, json);
    }

    if (g_failures) {
        std::fprintf(stderr,
                     "dol_resume_check: %d scenario check(s) failed "
                     "(dolsim output: %s)\n",
                     g_failures, log.c_str());
        return 1;
    }
    std::printf("dol_resume_check: all kill-and-resume and supervised "
                "scenarios passed\n");
    return 0;
}
