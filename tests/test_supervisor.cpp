/**
 * @file
 * Journal-supervisor tests: which child exits end supervision and
 * which restart it, the first-generation-only arguments, the stall
 * limit (journal growth is the heartbeat), the give-up bound, and
 * stop forwarding. The child is a small /bin/sh script, so every case
 * runs real fork/exec/kill/waitpid in milliseconds; dol_resume_check
 * drives the same supervisor through real dolsim sweeps.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runner/supervisor.hpp"

namespace
{

using namespace dol;

/** Options running `sh -c SCRIPT sh [first args]`; the script sees
 *  the first generation's extra arguments as "$1", and "$J" is the
 *  journal path. */
runner::SupervisorOptions
shellOptions(const std::string &name, const std::string &script)
{
    runner::SupervisorOptions options;
    options.exe = "/bin/sh";
    options.journalPath = testing::TempDir() + name + ".journal";
    options.args = {"sh", "-c",
                    "J='" + options.journalPath + "'; " + script, "sh"};
    options.verbose = false;
    std::remove(options.journalPath.c_str());
    return options;
}

/** Lines the children appended to "$J.runs" (one per generation). */
std::vector<std::string>
runs(const runner::SupervisorOptions &options)
{
    std::vector<std::string> lines;
    std::ifstream in(options.journalPath + ".runs");
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::remove((options.journalPath + ".runs").c_str());
    std::remove(options.journalPath.c_str());
    return lines;
}

TEST(Supervisor, FinishedAndSetupExitsAreNotRetried)
{
    for (const int code : {0, 1, 3}) {
        auto options = shellOptions(
            "exit" + std::to_string(code),
            "echo run >> \"$J.runs\"; exit " + std::to_string(code));
        std::string error;
        EXPECT_EQ(runner::superviseSweep(options, &error), code);
        EXPECT_TRUE(error.empty()) << error;
        EXPECT_EQ(runs(options).size(), 1u) << "exit " << code;
    }
}

TEST(Supervisor, DeadChildIsRestartedWithoutTheFirstArguments)
{
    // The abort fault's status and a real signal death both restart;
    // only the first generation sees the fault argument.
    for (const std::string death : {"exit 137", "kill -9 $$"}) {
        auto options = shellOptions(
            "dead", "echo \"gen $1\" >> \"$J.runs\"; "
                    "if [ -n \"$1\" ]; then " + death + "; fi; exit 0");
        options.firstArgs = {"fault"};
        std::string error;
        EXPECT_EQ(runner::superviseSweep(options, &error), 0) << error;
        EXPECT_EQ(runs(options),
                  (std::vector<std::string>{"gen fault", "gen "}))
            << death;
    }
}

TEST(Supervisor, StalledChildIsKilledAndRestarted)
{
    auto options = shellOptions(
        "stall", "echo run >> \"$J.runs\"; "
                 "if [ -n \"$1\" ]; then exec sleep 30; fi; exit 0");
    options.firstArgs = {"hang"};
    options.stallMs = 200;
    const auto start = std::chrono::steady_clock::now();
    std::string error;
    EXPECT_EQ(runner::superviseSweep(options, &error), 0) << error;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    EXPECT_EQ(runs(options).size(), 2u);
}

TEST(Supervisor, JournalGrowthKeepsASlowChildAlive)
{
    // Ten 100 ms steps against a 300 ms stall limit: the child outlives
    // the limit three times over but is never killed, because every
    // step grows the journal.
    auto options = shellOptions(
        "heartbeat", "echo run >> \"$J.runs\"; for i in 1 2 3 4 5 6 7 "
                     "8 9 10; do echo beat >> \"$J\"; sleep 0.1; done");
    options.stallMs = 300;
    std::string error;
    EXPECT_EQ(runner::superviseSweep(options, &error), 0) << error;
    EXPECT_EQ(runs(options).size(), 1u);
}

TEST(Supervisor, GivesUpAfterIdleRestarts)
{
    auto options =
        shellOptions("idle", "echo run >> \"$J.runs\"; kill -9 $$");
    std::string error;
    EXPECT_EQ(runner::superviseSweep(options, &error), 1);
    EXPECT_NE(error.find("giving up"), std::string::npos) << error;
    // The first child plus kMaxIdleRestarts restarts, none journaling.
    EXPECT_EQ(runs(options).size(), runner::kMaxIdleRestarts + 1);
}

TEST(Supervisor, ForwardsAStopRequestAndReturnsTheChildStatus)
{
    auto options = shellOptions(
        "stop", "echo run >> \"$J.runs\"; sleep 30 & pid=$!; "
                "trap 'kill $pid; exit 130' INT; wait");
    std::atomic<bool> stop{false};
    options.stopFlag = &stop;
    std::thread raiser([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        stop = true;
    });
    std::string error;
    EXPECT_EQ(runner::superviseSweep(options, &error), 130) << error;
    raiser.join();
    EXPECT_EQ(runs(options).size(), 1u);
}

} // namespace
