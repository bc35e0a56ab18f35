# Trace determinism check, run as a ctest via `cmake -P`.
#
# Runs the same multi-cell traced sweep once with --jobs 1 and once
# with --jobs 4, then requires every per-cell trace file to be
# byte-identical between the two runs. This is the contract the event
# bus documents: trace bytes depend only on the cell, never on worker
# scheduling. It also checks that `--replay` refuses an event trace.
#
# Usage:
#   cmake -DDOLSIM=<path-to-dolsim> -DWORKDIR=<scratch-dir>
#         -P trace_determinism.cmake

foreach(required DOLSIM WORKDIR)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "trace_determinism: -D${required}= not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(sweep_args
    --workload libquantum.syn,mcf.syn
    --prefetcher TPC,SPP
    --instrs 20000
    --quiet)

foreach(jobs 1 4)
    execute_process(
        COMMAND "${DOLSIM}" ${sweep_args} --jobs ${jobs}
                --trace "${WORKDIR}/j${jobs}.trc"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "trace_determinism: dolsim --jobs ${jobs} failed (${rc})")
    endif()
endforeach()

set(cells
    libquantum.syn.TPC
    libquantum.syn.SPP
    mcf.syn.TPC
    mcf.syn.SPP)

foreach(cell ${cells})
    set(a "${WORKDIR}/j1.trc.${cell}")
    set(b "${WORKDIR}/j4.trc.${cell}")
    foreach(path ${a} ${b})
        if(NOT EXISTS "${path}")
            message(FATAL_ERROR
                    "trace_determinism: missing trace file ${path}")
        endif()
    endforeach()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
                "trace_determinism: ${cell} trace differs between "
                "--jobs 1 and --jobs 4")
    endif()
endforeach()

# An event trace is not a workload: --replay must refuse it (exit
# nonzero, naming the format) instead of simulating its bytes.
execute_process(
    COMMAND "${DOLSIM}" --replay "${WORKDIR}/j1.trc.mcf.syn.TPC"
            --instrs 1000 --quiet
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE replay_err)
if(rc EQUAL 0 OR NOT replay_err MATCHES "DOLTRC01 event trace")
    message(FATAL_ERROR
            "trace_determinism: --replay of an event trace must fail "
            "loudly (rc=${rc}): ${replay_err}")
endif()

message(STATUS "trace_determinism: all ${cells} byte-identical")
