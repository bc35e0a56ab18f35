# Contention sweep smoke, run as a ctest via `cmake -P`.
#
# Drives dolsim through the mix x arbitration grid — all four named
# contention mixes crossed with all three shared-channel arbitration
# policies — and validates the emitted dol-sweep-v1 document: schema
# tag, full grid, fairness/attribution counters on every row, and the
# demand-first structural invariant (zero modelled arbitration
# delay). The same sweep is then re-run with --jobs 8 and the two
# results arrays must serialize identically: worker scheduling must
# never leak into mix results.
#
# Usage:
#   cmake -DDOLSIM=<path-to-dolsim> -DWORKDIR=<scratch-dir>
#         -P contention_sweep.cmake

foreach(required DOLSIM WORKDIR)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "contention_sweep: -D${required}= not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(sweep_args
    --mix stream_starves_pchase,temporal_quad,prefetch_storm_vs_quiet,hetero_quad
    --arbitration demand-first,fifo,rr
    --instrs 8000
    --counters
    --quiet)

foreach(jobs 1 8)
    execute_process(
        COMMAND "${DOLSIM}" ${sweep_args} --jobs ${jobs}
                --json "${WORKDIR}/j${jobs}.json"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "contention_sweep: dolsim --jobs ${jobs} failed (${rc})")
    endif()
    if(NOT EXISTS "${WORKDIR}/j${jobs}.json")
        message(FATAL_ERROR
                "contention_sweep: ${WORKDIR}/j${jobs}.json not written")
    endif()
endforeach()

file(READ "${WORKDIR}/j1.json" doc)
file(READ "${WORKDIR}/j8.json" doc8)

if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON schema GET "${doc}" schema)
    if(NOT schema STREQUAL "dol-sweep-v1")
        message(FATAL_ERROR "contention_sweep: schema is '${schema}'")
    endif()

    string(JSON n_results LENGTH "${doc}" results)
    # 4 mixes x 3 arbitration policies.
    if(NOT n_results EQUAL 12)
        message(FATAL_ERROR
                "contention_sweep: expected 12 results, got ${n_results}")
    endif()

    set(fifo_delay_rows 0)
    math(EXPR last "${n_results} - 1")
    foreach(i RANGE ${last})
        string(JSON row GET "${doc}" results ${i})
        string(JSON workload GET "${row}" workload)
        if(NOT workload MATCHES "^mix:")
            message(FATAL_ERROR
                    "contention_sweep: row ${i} workload '${workload}' "
                    "lacks the mix: prefix")
        endif()
        foreach(metric speedup ipc baseline_ipc instructions)
            string(JSON value ERROR_VARIABLE err
                   GET "${row}" metrics ${metric})
            if(err)
                message(FATAL_ERROR
                        "contention_sweep: row ${i} lacks ${metric}")
            endif()
        endforeach()
        # Fairness and attribution counters must ride into the JSON.
        foreach(counter fairness.weighted_speedup_milli
                fairness.harmonic_speedup_milli
                fairness.unfairness_milli core0.slowdown_milli
                core0.dram_lines core0.l3_insertions dram.lines
                dram.arb_delay_cycles)
            string(JSON value ERROR_VARIABLE err
                   GET "${row}" counters "${counter}")
            if(err)
                message(FATAL_ERROR
                        "contention_sweep: row ${i} lacks counter "
                        "${counter}")
            endif()
        endforeach()
        string(JSON variant GET "${row}" variant)
        string(JSON arb_delay GET "${row}" counters
               dram.arb_delay_cycles)
        if(variant STREQUAL ":arb=demand-first")
            # Legacy path models no arbitration delay at all.
            if(NOT arb_delay EQUAL 0)
                message(FATAL_ERROR
                        "contention_sweep: demand-first row ${i} has "
                        "arb_delay_cycles ${arb_delay}")
            endif()
        elseif(variant STREQUAL ":arb=fifo" AND arb_delay GREATER 0)
            math(EXPR fifo_delay_rows "${fifo_delay_rows} + 1")
        endif()
    endforeach()
    if(fifo_delay_rows EQUAL 0)
        message(FATAL_ERROR
                "contention_sweep: no fifo row charged any "
                "arbitration delay — the policy is inert")
    endif()

    # Scheduling determinism: the results arrays (rows, metrics,
    # counters, seeds) must serialize identically at any job count.
    string(JSON results1 GET "${doc}" results)
    string(JSON results8 GET "${doc8}" results)
    if(NOT results1 STREQUAL results8)
        message(FATAL_ERROR
                "contention_sweep: results differ between --jobs 1 "
                "and --jobs 8")
    endif()
else()
    # Pre-3.19 fallback: substring checks only.
    foreach(needle "\"schema\": \"dol-sweep-v1\""
            "mix:stream_starves_pchase" "mix:temporal_quad"
            "mix:prefetch_storm_vs_quiet" "mix:hetero_quad"
            ":arb=demand-first" ":arb=fifo" ":arb=rr"
            "fairness.unfairness_milli" "core0.slowdown_milli")
        string(FIND "${doc}" "${needle}" pos)
        if(pos EQUAL -1)
            message(FATAL_ERROR
                    "contention_sweep: '${needle}' missing from JSON")
        endif()
    endforeach()
endif()

message(STATUS "contention_sweep: dol-sweep-v1 document valid "
               "(12 cells, fairness counters present, jobs-invariant)")
